"""The stacked kernels of :mod:`repro.kernels.batched`, pinned.

A stacked slice must get the bits its job gets as a stack of one: the
fallback chain's single solves (:func:`repro.qbd.rmatrix.solve_R`) and
the drift test (:func:`repro.qbd.stability.drift`) run these kernels on
a stack of one, so that is what lets a chunk's points and a lone point
report the same numbers (``tests/workloads/test_batched_sweeps.py``
checks whole sweeps through the chain).  The GTH agrees with the
one-chain oracle to a few ulps.

The blocks are the ones the solve stage builds (``build_class_qbd_fast``)
for the Figure 2 and Figure 5 presets on the quick grid, captured as the
stage hands them to the kernels: warm slices carry the previous
fixed-point iterate as their seed.
"""

import numpy as np
import pytest

from repro.errors import ReducibleChainError
from repro.kernels import batched
from repro.qbd.stability import drift
from repro.scenario import get_scenario, run
from tests.markov.ctmc_oracle import solve_stationary_gth

TOL = 1e-12


@pytest.fixture(scope="module")
def captured():
    """``(rsolve, drifts)``: every ``batched_solve_R`` stack as ``(A0,
    A1, A2, R0, seeded)`` and every ``batched_drift`` stack as ``(A0,
    A1, A2)`` the solve stage ran on the two presets."""
    rsolve, drifts = [], []
    solve_R, drift_of = batched.batched_solve_R, batched.batched_drift

    def capture_R(A0, A1, A2, *, R0, seeded, **kwargs):
        rsolve.append((A0.copy(), A1.copy(), A2.copy(), R0.copy(),
                       seeded.copy()))
        return solve_R(A0, A1, A2, R0=R0, seeded=seeded, **kwargs)

    def capture_drift(A0, A1, A2):
        drifts.append((A0.copy(), A1.copy(), A2.copy()))
        return drift_of(A0, A1, A2)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(batched, "batched_solve_R", capture_R)
        mp.setattr(batched, "batched_drift", capture_drift)
        for name in ("fig2", "fig5-class0"):
            run(get_scenario(name, grid="quick"))
    return rsolve, drifts


def _slices(stacks):
    for A0, A1, A2, R0, seeded in stacks:
        for i in range(A1.shape[0]):
            yield A0[i], A1[i], A2[i], R0[i], bool(seeded[i])


def _solve(A0, A1, A2, R0, seeded):
    return batched.batched_solve_R(A0, A1, A2, R0=R0, seeded=seeded,
                                   tol=TOL, max_iter=64)


def _one(*slice_):
    """``batched_solve_R`` of one job as a stack of one."""
    A0, A1, A2, R0, seeded = slice_
    return _solve(A0[None], A1[None], A2[None], R0[None],
                  np.array([seeded]))


def _mixed_stack(slices):
    """One stack of same-dimension jobs: each job warm and cold, one
    job seeded too far off to refine, and between them a job whose
    blocks are all zero (it cannot uniformize, and its ``I - U`` is
    singular).  Returns the stack and the index of the zero job."""
    d = slices[0][1].shape[0]
    jobs = [(A0, A1, A2, R0, True) for A0, A1, A2, R0, _ in slices]
    jobs += [(A0, A1, A2, R0, False) for A0, A1, A2, R0, _ in slices]
    A0, A1, A2, R0, _ = slices[0]
    jobs.append((A0, A1, A2, 50.0 * R0, True))
    zero = np.zeros((d, d))
    bad = len(jobs) // 2
    jobs.insert(bad, (zero, zero, zero, zero, False))
    stack = tuple(np.stack([job[k] for job in jobs]) for k in range(4))
    return stack + (np.array([job[4] for job in jobs]),), bad


class TestSliceEqualsStackOfOne:
    def test_mixed_stacks(self, captured):
        """Per phase dimension: every good slice of a mixed stack gets
        the ``R`` bits, ``refined`` flag, step count and ``ok`` of its
        job solved alone, and the failing slice moves no neighbour."""
        by_dim: dict[int, list] = {}
        for s in _slices(captured[0]):
            if s[4]:                            # a real warm seed
                by_dim.setdefault(s[1].shape[0], []).append(s)
        assert len(by_dim) >= 3
        for d, slices in sorted(by_dim.items()):
            stack, bad = _mixed_stack(slices[::max(1, len(slices) // 6)])
            R, refined, iters, ok = _solve(*stack)
            assert not ok[bad]
            assert refined.any() and (ok & ~refined).any()
            assert (stack[4] & ~refined & ok).any()   # the far seed
            for i in range(R.shape[0]):
                if i == bad:
                    continue
                R1, refined1, iters1, ok1 = _one(*(a[i] for a in stack))
                assert R[i].tobytes() == R1[0].tobytes(), (d, i)
                assert (refined[i], iters[i], ok[i]) \
                    == (refined1[0], iters1[0], ok1[0]), (d, i)
            keep = np.arange(R.shape[0]) != bad
            R2, refined2, iters2, ok2 = _solve(*(a[keep] for a in stack))
            assert R2.tobytes() == R[keep].tobytes()
            assert np.array_equal(refined2, refined[keep])
            assert np.array_equal(iters2, iters[keep])
            assert np.array_equal(ok2, ok[keep])


class TestGTH:
    def test_single_drift_is_a_stacked_slice(self, captured):
        """``qbd.stability.drift`` (a stack of one) gets the bits of the
        solve stage's stacked drift test."""
        for A0, A1, A2 in captured[1]:
            up, down, y, ok = batched.batched_drift(A0, A1, A2)
            for i in range(A1.shape[0]):
                report = drift(A0[i], A1[i], A2[i])
                assert report.phase_stationary.tobytes() == y[i].tobytes()
                assert (report.up, report.down) == (up[i], down[i])

    def test_batched_drift_matches_the_oracle(self, captured):
        """Not bitwise: the back substitution sums with ``einsum`` in
        one and ``dot`` in the other."""
        for A0, A1, A2 in captured[1]:
            up, down, y, ok = batched.batched_drift(A0, A1, A2)
            assert ok.all()
            for i in range(A1.shape[0]):
                want = solve_stationary_gth(A0[i] + A1[i] + A2[i])
                np.testing.assert_array_max_ulp(y[i], want, maxulp=8)
                np.testing.assert_allclose(
                    [up[i], down[i]],
                    [want @ A0[i].sum(axis=1), want @ A2[i].sum(axis=1)],
                    rtol=1e-13)

    def test_flags_exactly_the_chains_the_oracle_rejects(self, captured):
        A0, A1, A2 = captured[1][0]
        Q = A0[0] + A1[0] + A2[0]
        d = Q.shape[0]
        absorbing = Q.copy()
        absorbing[-1, :] = 0.0                  # the last state never leaves
        split = np.zeros((2 * d, 2 * d))        # two closed classes
        split[:d, :d] = split[d:, d:] = Q
        transient = np.zeros((2 * d, 2 * d))    # a closed class, and
        transient[:d, :d] = Q                   # transient states that
        transient[d:, :d] = 1.0                 # feed into it
        transient[d:, d:] = Q
        chains = [absorbing, Q, split, transient]
        expect = []
        for T in chains:
            try:
                solve_stationary_gth(T)
                expect.append(True)
            except ReducibleChainError:
                expect.append(False)
        assert expect.count(False) >= 2 and expect.count(True) >= 2
        for T, want in zip(chains, expect):
            stack = np.stack([Q, T, Q]) if T.shape == Q.shape \
                else T[None]
            zeros = np.zeros_like(stack)
            _, _, _, ok = batched.batched_drift(zeros, stack, zeros)
            assert ok[stack.shape[0] // 2] == want
