"""Representation-agnostic block helpers for tests and the test oracles.

Each accepts a dense ``ndarray`` or a ``scipy.sparse`` matrix, like the
helpers of :mod:`repro.kernels.sparse`; no product path calls them.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as _sp


def to_csr(M) -> "_sp.csr_array":
    """Coerce to ``csr_array`` (cheap when already CSR)."""
    if _sp.issparse(M):
        return _sp.csr_array(M)
    return _sp.csr_array(np.asarray(M, dtype=np.float64))


def diagonal(M) -> np.ndarray:
    """Main diagonal as a 1-D array, either representation."""
    if _sp.issparse(M):
        return np.asarray(M.diagonal())
    return np.diag(np.asarray(M))


def sub_dense(M, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Dense submatrix ``M[rows, cols]`` from either representation.

    The oracles take small index sets out of possibly-large blocks, so
    the result is always dense.
    """
    if rows.size == 0 or cols.size == 0:
        return np.zeros((rows.size, cols.size))
    if _sp.issparse(M):
        return M[np.ix_(rows, cols)].toarray()
    return M[np.ix_(rows, cols)]
