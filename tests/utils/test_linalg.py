"""Tests for the GTH oracle and the Kronecker sum.

:func:`solve_stationary_gth` (``tests/markov/ctmc_oracle.py``) is the
reference the stacked GTH of the drift test is checked against;
:func:`~repro.phasetype.algebra.kron_sum` builds the joint block of the
PH minimum and maximum.
"""

import numpy as np
import pytest

from repro.errors import ReducibleChainError, ValidationError
from repro.phasetype.algebra import kron_sum
from tests.markov.ctmc_oracle import (
    solve_stationary_gth,
    stationary_from_generator,
)


def gth_zeroing_diagonal(T):
    """GTH that re-zeroes the diagonal after every elimination step."""
    n = T.shape[0]
    A = np.array(T, dtype=np.float64, copy=True)
    np.fill_diagonal(A, 0.0)
    for k in range(n - 1, 0, -1):
        A[:k, k] /= A[k, :k].sum()
        A[:k, :k] += np.outer(A[:k, k], A[k, :k])
        np.fill_diagonal(A[:k, :k], 0.0)
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = pi[:k] @ A[:k, k]
    return pi / pi.sum()


def random_generator(rng, n):
    """Random irreducible generator (dense positive off-diagonals)."""
    Q = rng.uniform(0.1, 2.0, size=(n, n))
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return Q


class TestKronSum:
    def test_shape(self):
        A = np.array([[-1.0, 1.0], [0.5, -0.5]])
        B = np.array([[-2.0, 2.0], [1.0, -1.0]])
        K = kron_sum(A, B)
        assert K.shape == (4, 4)

    def test_generator_of_independent_pair(self):
        # Kronecker sum of two generators is again a generator.
        A = np.array([[-1.0, 1.0], [0.5, -0.5]])
        B = np.array([[-2.0, 2.0], [1.0, -1.0]])
        K = kron_sum(A, B)
        assert np.allclose(K.sum(axis=1), 0.0)

    def test_eigenvalues_add(self):
        A = np.diag([-1.0, -2.0])
        B = np.diag([-3.0, -5.0])
        K = kron_sum(A, B)
        assert sorted(np.diag(K)) == [-7.0, -6.0, -5.0, -4.0]


class TestGTH:
    def test_two_state_ctmc(self):
        Q = np.array([[-1.0, 1.0], [3.0, -3.0]])
        pi = solve_stationary_gth(Q)
        assert pi == pytest.approx([0.75, 0.25])

    def test_matches_direct_solve(self, rng):
        Q = random_generator(rng, 7)
        pi_gth = solve_stationary_gth(Q)
        pi_dir = stationary_from_generator(Q, method="direct")
        assert pi_gth == pytest.approx(pi_dir, abs=1e-10)

    def test_balance_residual(self, rng):
        Q = random_generator(rng, 12)
        pi = solve_stationary_gth(Q)
        assert np.max(np.abs(pi @ Q)) < 1e-10
        assert pi.sum() == pytest.approx(1.0)

    def test_single_state(self):
        assert solve_stationary_gth(np.array([[0.0]])) == pytest.approx([1.0])

    def test_transient_state_gets_zero_mass(self):
        # State 2 feeds {0,1} but nothing returns: pi_2 = 0.
        Q = np.array([[-1.0, 1.0, 0.0],
                      [1.0, -1.0, 0.0],
                      [0.0, 1.0, -1.0]])
        pi = solve_stationary_gth(Q)
        assert pi[2] == pytest.approx(0.0, abs=1e-12)

    def test_unreachable_remainder_raises(self):
        # State 1 has no transitions into state 0: elimination cannot
        # fold it back, which GTH reports as reducibility.
        with pytest.raises(ReducibleChainError):
            solve_stationary_gth(np.array([[-1.0, 1.0], [0.0, 0.0]]))

    def test_stiff_generator(self):
        # Rates spanning 10 orders of magnitude: GTH stays accurate.
        Q = np.array([
            [-1e-5, 1e-5, 0.0],
            [0.0, -1e5, 1e5],
            [1.0, 0.0, -1.0],
        ])
        pi = solve_stationary_gth(Q)
        assert np.max(np.abs(pi @ Q)) < 1e-8
        assert np.all(pi > 0)

    def test_empty_raises(self):
        with pytest.raises(ValidationError):
            solve_stationary_gth(np.zeros((0, 0)))

    def test_unknown_method(self):
        with pytest.raises(ValidationError, match="unknown"):
            stationary_from_generator(np.array([[0.0]]), method="qr")


class TestGTHDiagonal:
    @pytest.mark.parametrize("n", [2, 3, 8, 23, 40])
    def test_unread_diagonal_leaves_bits_unchanged(self, rng, n):
        # The elimination never reads a diagonal entry, so leaving the
        # rank-1 updates' diagonal in place gives the same bits.
        Q = random_generator(rng, n)
        Q[rng.random((n, n)) < 0.5] = 0.0       # sparse-ish, still
        Q += np.diag(np.ones(n - 1), 1)         # irreducible via a
        Q[-1, 0] += 1.0                         # Hamiltonian cycle
        np.fill_diagonal(Q, 0.0)
        np.fill_diagonal(Q, -Q.sum(axis=1))
        assert np.array_equal(solve_stationary_gth(Q),
                              gth_zeroing_diagonal(Q))
