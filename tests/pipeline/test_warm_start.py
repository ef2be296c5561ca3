"""Warm-started R solves: seeding, Newton refinement, and its guards."""

import numpy as np
import pytest

from repro.core.generator import build_class_qbd
from repro.kernels.batched import batched_refine_R
from repro.phasetype import erlang, exponential
from repro.qbd.rmatrix import METHODS, solve_R, warm_seed
from repro.resilience.fallback import resilient_solve_R


@pytest.fixture(scope="module")
def blocks():
    proc, _ = build_class_qbd(2, exponential(0.4), exponential(1.0),
                              erlang(2, 1.0), erlang(3, 2.0))
    return proc.A0, proc.A1, proc.A2


@pytest.fixture(scope="module")
def R_exact(blocks):
    return solve_R(*blocks)


class TestSolveRWarmStart:
    def test_warm_start_matches_cold(self, blocks, R_exact):
        for method in METHODS:
            warm = solve_R(*blocks, method=method, R0=R_exact)
            np.testing.assert_allclose(warm, R_exact, atol=1e-9,
                                       err_msg=method)

    def test_perturbed_seed_converges(self, blocks, R_exact):
        rng = np.random.default_rng(7)
        R0 = R_exact * (1 + 1e-3 * rng.standard_normal(R_exact.shape))
        warm = solve_R(*blocks, R0=R0)
        np.testing.assert_allclose(warm, R_exact, atol=1e-9)

    def test_mismatched_seed_ignored(self, blocks, R_exact):
        bad = np.eye(R_exact.shape[0] + 1)
        warm = solve_R(*blocks, R0=bad)
        np.testing.assert_allclose(warm, R_exact, atol=1e-9)

    def test_nonfinite_seed_ignored(self, blocks, R_exact):
        bad = np.full_like(R_exact, np.nan)
        warm = solve_R(*blocks, R0=bad)
        np.testing.assert_allclose(warm, R_exact, atol=1e-9)


def refine_R(A0, A1, A2, R0):
    """The Newton refinement of one seed, as a stack of one: the
    refined ``R``, or ``None`` when the refinement fell back."""
    R, _, ok = batched_refine_R(A0[None], A1[None], A2[None], R0[None])
    return R[0] if ok[0] else None


class TestRefineR:
    def test_refines_near_solution(self, blocks, R_exact):
        A0, A1, A2 = blocks
        R0 = R_exact * 1.001
        refined = refine_R(A0, A1, A2, R0)
        assert refined is not None
        resid = A0 + refined @ A1 + refined @ refined @ A2
        assert float(np.max(np.abs(resid))) < 1e-10
        np.testing.assert_allclose(refined, R_exact, atol=1e-8)

    def test_far_seed_rejected(self, blocks):
        A0, A1, A2 = blocks
        # Newton from a far-off seed can land on a *non-minimal*
        # solvent (negative entries); the guards must refuse it so the
        # caller falls back to a cold solve.
        bad = np.full((A1.shape[0], A1.shape[0]), 5.0)
        assert refine_R(A0, A1, A2, bad) is None

    def test_solver_falls_back_to_cold_on_bad_seed(self, blocks, R_exact):
        bad = np.full_like(R_exact, 5.0)
        R = solve_R(*blocks, R0=bad)
        np.testing.assert_allclose(R, R_exact, atol=1e-9)

    def test_refine_is_not_a_method(self):
        assert "newton" not in METHODS
        assert "refine" not in METHODS


class TestResilientWarmStart:
    def test_happy_path_stays_single_attempt(self, blocks, R_exact):
        R, report = resilient_solve_R(*blocks, R0=R_exact)
        np.testing.assert_allclose(R, R_exact, atol=1e-9)
        assert report.method == "logreduction"
        assert report.fallbacks == 0
        assert len(report.attempts) == 1


class TestSeedPastDenseNewton:
    """A seed whose ``d^2 x d^2`` Newton operator is past the backend
    selector's dense side is dropped: the job restarts cold, on the
    serial and on the stacked path alike."""

    @pytest.fixture(scope="class")
    def large_blocks(self):
        proc, _ = build_class_qbd(1, exponential(0.4), exponential(1.0),
                                  erlang(8, 1.0), erlang(8, 2.0))
        assert proc.phase_dim == 16
        return proc.A0, proc.A1, proc.A2

    @pytest.mark.parametrize("d, backend, used", [
        (15, None, True), (16, None, False), (16, "auto", False),
        (16, "dense", True), (40, "dense", True),
        (6, "sparse", True), (7, "sparse", False),
    ])
    def test_rule(self, d, backend, used):
        # auto: d^2 >= 256 is sparse; sparse: d^2 >= 48 is.
        assert (warm_seed(np.zeros((d, d)), d, backend) is not None) == used

    def test_large_seed_restarts_cold(self, large_blocks):
        cold = solve_R(*large_blocks)
        seed = cold * 1.001
        warm, info = solve_R(*large_blocks, R0=seed, return_info=True)
        assert not info.refined
        assert warm.tobytes() == cold.tobytes()
        _, dense = solve_R(*large_blocks, R0=seed, backend="dense",
                           return_info=True)
        assert dense.refined

    def test_chunk_with_such_a_class_makes_no_serial_solve(self,
                                                           monkeypatch):
        """Figure 4's quick sweep has a 16-phase class, which holds a
        warm seed from its second iteration on."""
        from repro.kernels import batched
        from repro.pipeline import stages
        from repro.scenario import figure_scenarios, run

        chain_calls, stacked_dims, seeded_dims = [], set(), set()
        chain, stacked = stages.resilient_solve_R, batched.batched_solve_R

        def count_chain(A0, A1, A2, **kwargs):
            chain_calls.append(A1.shape[0])
            return chain(A0, A1, A2, **kwargs)

        def count_stack(A0, A1, A2, *, seeded, **kwargs):
            stacked_dims.add(A1.shape[1])
            if seeded.any():
                seeded_dims.add(A1.shape[1])
            return stacked(A0, A1, A2, seeded=seeded, **kwargs)

        monkeypatch.setattr(stages, "resilient_solve_R", count_chain)
        monkeypatch.setattr(stages.bk, "batched_solve_R", count_stack)
        [fig4] = figure_scenarios(4, grid="quick")
        assert all(p.error is None for p in run(fig4).points)
        assert chain_calls == []
        assert 16 in stacked_dims and max(seeded_dims) < 16
