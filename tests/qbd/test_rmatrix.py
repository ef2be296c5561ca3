"""Tests for the R/G matrix solvers.

``G`` (logarithmic reduction), ``R`` from ``G`` and the warm-start
Newton refinement are the stacked kernels of
:mod:`repro.kernels.batched`; single solves run them on a stack of
one, and so do these tests.
"""

import numpy as np
import pytest

from repro.core.generator import build_class_qbd
from repro.errors import ValidationError
from repro.kernels.batched import (
    _batched_kron_operator,
    batched_r_from_g,
    batched_refine_R,
    batched_solve_G,
)
from repro.phasetype import PhaseType, erlang, exponential, hyperexponential
from repro.qbd.rmatrix import METHODS, RSolveDiagnostics, solve_R


def solve_G(A0, A1, A2):
    """``(G, doubling_steps)`` of one QBD, as a stack of one."""
    G, iterations, ok = batched_solve_G(A0[None], A1[None], A2[None])
    assert ok[0]
    return G[0], int(iterations[0])


def mm1_blocks(lam, mu):
    return (np.array([[lam]]), np.array([[-(lam + mu)]]), np.array([[mu]]))


def phase_blocks():
    """A 2-phase QBD: MAP-modulated M/M/1-like process."""
    lam0, lam1 = 0.8, 0.2
    mu = 1.0
    sw = 0.3
    A0 = np.diag([lam0, lam1])
    A2 = np.diag([mu, mu])
    A1 = np.array([
        [-(lam0 + mu + sw), sw],
        [sw, -(lam1 + mu + sw)],
    ])
    return A0, A1, A2


class TestMM1:
    def test_r_is_rho(self):
        A0, A1, A2 = mm1_blocks(0.6, 1.0)
        for method in METHODS:
            R = solve_R(A0, A1, A2, method=method)
            assert R[0, 0] == pytest.approx(0.6, abs=1e-9)

    def test_g_is_one(self):
        # For a recurrent chain, G is stochastic; scalar case: G = 1.
        A0, A1, A2 = mm1_blocks(0.6, 1.0)
        G, _ = solve_G(A0, A1, A2)
        assert G[0, 0] == pytest.approx(1.0, abs=1e-10)


class TestPhaseCase:
    @pytest.mark.parametrize("method", [m for m in METHODS
                                        if m != "logreduction"])
    def test_methods_agree(self, method):
        A0, A1, A2 = phase_blocks()
        R1 = solve_R(A0, A1, A2, method="logreduction")
        R2 = solve_R(A0, A1, A2, method=method)
        assert R1 == pytest.approx(R2, abs=1e-8)

    @pytest.mark.parametrize("method", METHODS)
    def test_quadratic_residual_all_methods(self, method):
        A0, A1, A2 = phase_blocks()
        R = solve_R(A0, A1, A2, method=method)
        residual = R @ R @ A2 + R @ A1 + A0
        assert np.max(np.abs(residual)) < 1e-9
        assert np.all(R >= 0)
        assert np.abs(np.linalg.eigvals(R)).max() < 1.0

    def test_quadratic_residual(self):
        A0, A1, A2 = phase_blocks()
        R = solve_R(A0, A1, A2)
        residual = R @ R @ A2 + R @ A1 + A0
        assert np.max(np.abs(residual)) < 1e-10

    def test_minimality_sp_below_one(self):
        A0, A1, A2 = phase_blocks()
        R = solve_R(A0, A1, A2)
        assert np.abs(np.linalg.eigvals(R)).max() < 1.0

    def test_r_nonnegative(self):
        A0, A1, A2 = phase_blocks()
        assert np.all(solve_R(A0, A1, A2) >= 0)

    def test_g_stochastic(self):
        A0, A1, A2 = phase_blocks()
        G, _ = solve_G(A0, A1, A2)
        assert np.all(G >= 0)
        assert G.sum(axis=1) == pytest.approx([1.0, 1.0], abs=1e-9)

    def test_g_quadratic_residual(self):
        A0, A1, A2 = phase_blocks()
        G, _ = solve_G(A0, A1, A2)
        residual = A0 @ G @ G + A1 @ G + A2
        assert np.max(np.abs(residual)) < 1e-9

    def test_r_from_g_consistency(self):
        A0, A1, A2 = phase_blocks()
        G, _ = solve_G(A0, A1, A2)
        [R] = batched_r_from_g(A0[None], A1[None], G[None])
        assert R == pytest.approx(solve_R(A0, A1, A2, method="substitution"),
                                  abs=1e-8)


class TestFailureModes:
    def test_unknown_method(self):
        A0, A1, A2 = mm1_blocks(0.5, 1.0)
        with pytest.raises(ValidationError, match="unknown"):
            solve_R(A0, A1, A2, method="newton")

    def test_unstable_minimal_root_is_one(self):
        # For rho > 1 the quadratic's roots are {1, rho}; the minimal
        # non-negative solution is 1 and sp(R) = 1 flags instability.
        A0, A1, A2 = mm1_blocks(1.5, 1.0)
        R = solve_R(A0, A1, A2, method="substitution", tol=1e-10)
        assert R[0, 0] == pytest.approx(1.0, abs=1e-4)

    def test_no_diagonal_rejected(self):
        zero = np.array([[0.0]])
        for method in ("logreduction", "cr"):
            with pytest.raises(ValidationError, match="negative diagonal"):
                solve_R(zero, zero, zero, method=method)


class TestReturnInfo:
    """The success path keeps its diagnostics (iterations/residual)."""

    @pytest.mark.parametrize("method", METHODS)
    def test_info_populated_for_all_methods(self, method):
        A0, A1, A2 = phase_blocks()
        R, info = solve_R(A0, A1, A2, method=method, return_info=True)
        assert isinstance(info, RSolveDiagnostics)
        assert info.method == method
        assert info.iterations >= (0 if method == "spectral" else 1)
        assert 0.0 <= info.residual < 1e-8
        assert info.refined is False

    def test_default_call_shape_unchanged(self):
        A0, A1, A2 = phase_blocks()
        R = solve_R(A0, A1, A2)
        assert isinstance(R, np.ndarray) and R.shape == (2, 2)

    def test_residual_matches_quadratic_defect(self):
        A0, A1, A2 = phase_blocks()
        R, info = solve_R(A0, A1, A2, return_info=True)
        defect = np.max(np.abs(R @ R @ A2 + R @ A1 + A0))
        assert info.residual == pytest.approx(defect, rel=1e-6, abs=1e-15)

    def test_warm_start_reports_refined(self):
        A0, A1, A2 = phase_blocks()
        R0 = solve_R(A0, A1, A2)
        R, info = solve_R(A0, A1, A2, R0=R0, return_info=True)
        assert info.refined is True
        # Newton steps from an already-converged iterate: possibly zero.
        assert info.iterations >= 0
        assert np.allclose(R, R0, atol=1e-8)

    def test_solve_g_return_info(self):
        A0, A1, A2 = phase_blocks()
        G, iterations = solve_G(A0, A1, A2)
        assert iterations >= 1
        _, info = solve_R(A0, A1, A2, return_info=True)
        assert info.iterations == iterations
        assert np.allclose(G.sum(axis=1), 1.0, atol=1e-8)


def _refine_kron_sum(A0, A1, A2, R, *, tol=1e-12, max_steps=8):
    """Dense Newton refinement with the matrix built as the textbook
    ``kron(I, X^T) + kron(R, A2^T)``: the expression
    ``_batched_kron_operator`` shortcuts by adding ``X^T`` to the
    diagonal blocks only."""
    d = A1.shape[0]
    target = max(tol, 1e-14) * max(1.0, float(np.max(np.abs(A1))))
    prev, steps = np.inf, 0
    for _ in range(max_steps):
        F = A0 + R @ A1 + R @ R @ A2
        resid = float(np.max(np.abs(F)))
        if resid <= target or resid >= prev:
            break
        prev, steps = resid, steps + 1
        M = np.kron(np.eye(d), (A1 + R @ A2).T) + np.kron(R, A2.T)
        R = R + np.linalg.solve(M, -F.ravel()).reshape(d, d)
    return R, steps


class TestRefineNewtonMatrix:
    @pytest.mark.parametrize("partitions, vacation", [
        (1, erlang(3, 2.0)),
        (2, hyperexponential([0.3, 0.7], [2.7, 11.3])),
        (4, PhaseType([0.5, 0.3, 0.2], [[-3.1, 1.2, 0.4],
                                        [0.3, -2.2, 0.9],
                                        [0.0, 0.7, -4.3]])),
    ])
    def test_same_bits_as_kron_sum(self, partitions, vacation):
        proc, _ = build_class_qbd(partitions, exponential(0.35 * partitions),
                                  exponential(1.0),
                                  hyperexponential([0.45, 0.55],
                                                   [0.61, 1.37]),
                                  vacation, policy="switch")
        A0, A1, A2 = proc.A0, proc.A1, proc.A2
        R = solve_R(A0, A1, A2)
        # A warm seed a few Newton steps out, as a neighbouring grid
        # point or the previous fixed-point iterate hands over.
        seed = R * (1.0 + 0.02 * np.cos(np.arange(R.size))).reshape(R.shape)
        d = seed.shape[0]
        X = A1 + seed @ A2
        [M] = _batched_kron_operator(seed[None], X[None], A2.T[None])
        assert np.array_equal(
            M, np.kron(np.eye(d), X.T) + np.kron(seed, A2.T))
        got, steps, ok = batched_refine_R(A0[None], A1[None], A2[None],
                                          seed[None])
        want, want_steps = _refine_kron_sum(A0, A1, A2, seed)
        assert ok[0]
        assert steps[0] == want_steps >= 2
        assert np.array_equal(got[0], want)
