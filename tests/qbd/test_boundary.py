"""Tests for the dense boundary solve, including degenerate columns.

Unreachable boundary phases (no flux in or out) produce all-zero
columns in the balance system.  Before the zero-column guard they
poisoned the column equilibration with 0/0 NaNs; the regression tests
here pin such states to zero probability explicitly.  The solve on the
assembler's boundary generator must return the bits of the
block-assembled oracle (``tests/qbd/boundary_oracle.py``).
"""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.phasetype import PhaseType, erlang, exponential
from repro.pipeline.assembly import build_class_qbd_fast
from repro.qbd.boundary import solve_boundary
from repro.qbd.rmatrix import solve_R
from repro.qbd.structure import QBDProcess
from tests.qbd import boundary_oracle


def process_with_dead_phase(lam=0.5, mu=1.0):
    """M/M/1 whose level-0 block carries an extra unreachable phase.

    The dead phase has no transitions in or out, so its balance column
    is identically zero; the solution must match plain M/M/1 with zero
    probability on the dead state.
    """
    B00 = np.array([[-lam, 0.0], [0.0, 0.0]])
    B01 = np.array([[lam], [0.0]])
    B10 = np.array([[mu, 0.0]])
    B11 = np.array([[-(lam + mu)]])
    return QBDProcess.from_trusted_blocks(
        boundary=((B00, B01), (B10, B11)),
        A0=np.array([[lam]]), A1=np.array([[-(lam + mu)]]),
        A2=np.array([[mu]]))


class TestDeadColumns:
    def test_dead_phase_gets_zero_probability(self):
        lam, mu = 0.5, 1.0
        rho = lam / mu
        proc = process_with_dead_phase(lam, mu)
        R = np.array([[rho]])
        pi, _ = solve_boundary(proc, R, backend="dense")
        assert np.all(np.isfinite(pi[0])) and np.all(np.isfinite(pi[1]))
        assert pi[0][1] == pytest.approx(0.0, abs=1e-12)
        # The live states reproduce the M/M/1 geometric solution.
        assert pi[0][0] == pytest.approx(1 - rho, abs=1e-10)
        assert pi[1][0] == pytest.approx((1 - rho) * rho, abs=1e-10)

    def test_no_nans_under_equilibration(self):
        # Regression: the 0/0 column scaling used to propagate NaNs
        # into the primary solve before the lstsq fallback could mask
        # the damage.
        proc = process_with_dead_phase(0.3, 1.0)
        pi, _ = solve_boundary(proc, np.array([[0.3]]), backend="dense")
        for v in pi:
            assert np.all(np.isfinite(v))
            assert np.all(v >= 0.0)

    def test_identically_zero_system_rejected(self):
        z = np.zeros((1, 1))
        proc = QBDProcess.from_trusted_blocks(
            boundary=((z, z), (z, z)), A0=z, A1=z, A2=z)
        with pytest.raises(ValidationError):
            solve_boundary(proc, np.zeros((1, 1)), backend="dense")


# ---------------------------------------------------------------------------
# The boundary generator: plan-built against block-built, to the bit


def _rebuilt(process):
    """The same process built block by block (``G`` from the blocks)."""
    return QBDProcess.from_trusted_blocks(
        [[None if blk is None else np.array(blk) for blk in row]
         for row in process.boundary],
        process.A0, process.A1, process.A2)


def _assert_bits(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def _chains():
    ph_arrival = PhaseType([0.5, 0.3, 0.2], [[-1.3, 0.4, 0.2],
                                             [0.1, -0.9, 0.3],
                                             [0.2, 0.0, -1.1]])
    ph_service = PhaseType([0.35, 0.65], [[-2.3, 0.7], [0.4, -1.9]])
    vacation = PhaseType([0.5, 0.3, 0.2], [[-3.1, 1.2, 0.4],
                                           [0.3, -2.2, 0.9],
                                           [0.0, 0.7, -4.3]])
    for policy in ("switch", "idle"):
        for c in (1, 3, 8):
            yield (c, exponential(0.37 * c), exponential(1.13),
                   erlang(2, 0.9), erlang(3, 2.3), policy)
        yield (3, ph_arrival, ph_service, erlang(2, 1.7), vacation, policy)


@pytest.mark.parametrize("args", list(_chains()),
                         ids=lambda a: f"c{a[0]}-{a[5]}-m{a[1].order}")
def test_plan_G_equals_block_G_and_oracle_bits(args):
    *dists, policy = args
    proc, _, _ = build_class_qbd_fast(*dists, policy=policy)
    R = solve_R(proc.A0, proc.A1, proc.A2)
    rebuilt = _rebuilt(proc)
    assert rebuilt.G is not proc.G
    assert np.array_equal(rebuilt.G, proc.G)
    want, lstsq = boundary_oracle.solve_boundary_dense(proc, R)
    assert not lstsq
    _assert_bits(solve_boundary(proc, R, backend="dense")[0], want)
    _assert_bits(solve_boundary(rebuilt, R, backend="dense")[0], want)


def test_dead_state_bits_equal_oracle():
    proc = process_with_dead_phase(0.5, 1.0)
    R = np.array([[0.5]])
    want, _ = boundary_oracle.solve_boundary_dense(proc, R)
    _assert_bits(solve_boundary(proc, R, backend="dense")[0], want)


def test_lstsq_fallback_bits_equal_oracle():
    """Two copies of an M/M/1 chain that never meet: the balance system
    keeps a second redundant equation after the normalization replaces
    one, so the solve falls back to least squares."""
    lam, mu = 0.5, 1.0
    B00 = np.diag([-lam, -lam])
    up = np.eye(2) * lam
    down = np.eye(2) * mu
    A1 = np.eye(2) * -(lam + mu)
    proc = QBDProcess.from_trusted_blocks(
        boundary=((B00, up), (down, A1)), A0=up, A1=A1, A2=down)
    R = np.eye(2) * (lam / mu)
    want, lstsq = boundary_oracle.solve_boundary_dense(proc, R)
    assert lstsq
    got, tail = solve_boundary(proc, R, backend="dense")
    _assert_bits(got, want)
    assert tail.tobytes() == np.linalg.solve(np.eye(2) - R,
                                             np.ones(2)).tobytes()
    assert sum(v.sum() for v in got[:-1]) + got[-1] @ tail \
        == pytest.approx(1.0)
