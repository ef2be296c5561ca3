"""Tests for sparse Kronecker assembly."""

import numpy as np
from scipy import sparse as sp

from repro.kernels import kron2


def blocks(n, m, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)), rng.standard_normal((m, m))


class TestKron2:
    def test_dense_matches_numpy(self):
        A, B = blocks(3, 4)
        assert np.array_equal(kron2(A, B), np.kron(A, B))

    def test_sparse_matches_numpy(self):
        A, B = blocks(3, 4, seed=1)
        out = kron2(A, B, sparse=True)
        assert sp.issparse(out)
        assert np.allclose(out.toarray(), np.kron(A, B))

    def test_scalar_shortcuts(self):
        A = np.array([[2.5]])
        B = blocks(1, 4, seed=2)[1]
        assert np.allclose(kron2(A, B), 2.5 * B)
        assert np.allclose(kron2(B, A), 2.5 * B)
        out = kron2(A, B, sparse=True)
        assert sp.issparse(out)
        assert np.allclose(out.toarray(), 2.5 * B)

    def test_sparse_factors_stay_sparse(self):
        A, B = blocks(3, 3, seed=3)
        out = kron2(sp.csr_array(A), B)
        assert sp.issparse(out)
        assert np.allclose(out.toarray(), np.kron(A, B))
