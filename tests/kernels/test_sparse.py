"""Tests for the representation-agnostic block helpers and factorizations."""

import numpy as np
import pytest
from scipy import sparse as sp

from repro.kernels import (
    Factorization,
    density,
    diagonal,
    factorize,
    is_sparse,
    ph_moments,
    row_sums,
    sub_dense,
    to_csr,
    to_dense,
)
from repro.phasetype import erlang, hyperexponential


def random_block(n, seed=0, fill=0.3):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    M[rng.random((n, n)) > fill] = 0.0
    return M


class TestRepresentationHelpers:
    def test_roundtrip(self):
        M = random_block(12)
        assert np.array_equal(to_dense(to_csr(M)), M)
        assert is_sparse(to_csr(M))
        assert not is_sparse(to_dense(to_csr(M)))

    def test_density_agrees(self):
        M = random_block(15, seed=3)
        assert density(M) == pytest.approx(density(to_csr(M)))
        assert density(np.zeros((4, 4))) == 0.0
        assert density(np.zeros((0, 0))) == 0.0

    def test_diagonal_and_row_sums(self):
        M = random_block(10, seed=1)
        C = to_csr(M)
        assert np.allclose(diagonal(C), np.diag(M))
        assert np.allclose(row_sums(C), M.sum(axis=1))

    def test_sub_dense_matches_fancy_indexing(self):
        M = random_block(20, seed=2)
        rows = np.array([0, 3, 7, 19])
        cols = np.array([1, 2, 18])
        expect = M[np.ix_(rows, cols)]
        assert np.array_equal(sub_dense(M, rows, cols), expect)
        assert np.allclose(sub_dense(to_csr(M), rows, cols), expect)

    def test_sub_dense_empty_index_sets(self):
        M = to_csr(random_block(5))
        assert sub_dense(M, np.array([], dtype=np.intp),
                         np.array([0, 1])).shape == (0, 2)
        assert sub_dense(M, np.array([0]),
                         np.array([], dtype=np.intp)).shape == (1, 0)


class TestFactorization:
    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_solve_and_transpose(self, backend):
        rng = np.random.default_rng(7)
        A = random_block(16, seed=7) + 16 * np.eye(16)  # well conditioned
        lu = Factorization(A, backend=backend)
        b = rng.standard_normal(16)
        assert np.allclose(A @ lu.solve(b), b, atol=1e-10)
        assert np.allclose(A.T @ lu.solve_transposed(b), b, atol=1e-10)

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_matrix_rhs(self, backend):
        A = random_block(10, seed=8) + 10 * np.eye(10)
        B = np.random.default_rng(8).standard_normal((10, 3))
        lu = Factorization(A, backend=backend)
        assert np.allclose(A @ lu.solve(B), B, atol=1e-10)

    def test_factorize_accepts_csr(self):
        A = random_block(12, seed=9) + 12 * np.eye(12)
        x = np.ones(12)
        dense = factorize(A, backend="dense").solve(x)
        sparse = factorize(sp.csr_array(A), backend="sparse").solve(x)
        assert np.allclose(dense, sparse, atol=1e-10)


class TestPhMoments:
    @pytest.mark.parametrize("dist", [
        erlang(4, rate=1.3),
        hyperexponential([0.3, 0.7], [0.5, 2.0]),
    ])
    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_matches_reference(self, dist, backend):
        moments = ph_moments(dist.alpha, dist.S, 3, backend=backend)
        for k, m in enumerate(moments, start=1):
            assert m == pytest.approx(dist.moment(k), rel=1e-12)

    def test_sparse_generator_input(self):
        dist = erlang(6, rate=0.8)
        moments = ph_moments(dist.alpha, sp.csr_array(np.asarray(dist.S)), 2)
        assert moments[0] == pytest.approx(dist.mean, rel=1e-12)
