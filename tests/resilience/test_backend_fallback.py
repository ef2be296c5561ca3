"""Backend modes in the resilience chain.

The ``R`` solve has no sparse kernel: the backend mode only decides
whether a warm seed is refined (:func:`repro.qbd.rmatrix.warm_seed`).
A seed whose ``d^2 x d^2`` Newton operator is past the selector's
dense side is dropped, so the solve starts cold and wins its first
attempt; the dense mode refines the same seed at any size.
"""

import numpy as np
import pytest

from repro.qbd.rmatrix import solve_R
from repro.resilience.fallback import resilient_solve_R


def phase_qbd(d=8, lam=0.4, mu=1.0, sw=0.2):
    """A ``d``-phase QBD (cyclic phase switching) — big enough that
    ``backend="sparse"`` puts its Newton operator on the sparse side
    (``d^2 >= 48``)."""
    A0 = lam * np.eye(d)
    A2 = mu * np.eye(d)
    A1 = -(lam + mu + sw) * np.eye(d)
    for i in range(d):
        A1[i, (i + 1) % d] = sw
    return A0, A1, A2


class TestSparseSeed:
    def test_sparse_seed_solves_cold_in_one_attempt(self):
        A0, A1, A2 = phase_qbd()
        R0 = solve_R(A0, A1, A2)
        R, report = resilient_solve_R(A0, A1, A2, R0=R0, backend="sparse")
        [attempt] = report.attempts
        assert (attempt.method, attempt.outcome, attempt.backend) \
            == ("logreduction", "ok", "sparse")
        # Doubling steps of the cold reduction, not Newton steps.
        cold, cold_report = resilient_solve_R(A0, A1, A2, backend="sparse")
        assert attempt.iterations == cold_report.attempts[0].iterations > 0
        assert R.tobytes() == cold.tobytes()

    def test_dense_backend_refines_the_same_seed(self):
        A0, A1, A2 = phase_qbd()
        R0 = solve_R(A0, A1, A2)
        R, report = resilient_solve_R(A0, A1, A2, R0=R0, backend="dense")
        [attempt] = report.attempts
        # The converged seed passes the refinement's test at step 0.
        assert (attempt.outcome, attempt.iterations) == ("ok", 0)
        assert R.tobytes() == np.clip(R0, 0.0, None).tobytes()


class TestEndToEndParity:
    @pytest.mark.parametrize("backend", ["dense", "sparse", "auto", None])
    def test_backends_agree(self, backend):
        A0, A1, A2 = phase_qbd(d=10)
        R_ref, _ = resilient_solve_R(A0, A1, A2, backend="dense")
        R, report = resilient_solve_R(A0, A1, A2, backend=backend)
        assert report.succeeded
        assert np.allclose(R, R_ref, atol=1e-9)
