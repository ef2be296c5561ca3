"""CSR helpers shared by the sparse kernels.

The repo's matrices live in two representations — dense ``ndarray``
(the reference kernels, and every block small enough that CSR indices
would outweigh the data) and ``scipy.sparse`` CSR (large boundary
blocks, truncated generators, uniformized chains).  These helpers are
the representation-agnostic seam: each accepts either and returns the
obvious thing, so consumers like the boundary solver and the
effective-quantum extractor can stop caring which one the assembler
produced.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as _sp
from scipy.sparse import linalg as _spla

__all__ = [
    "is_sparse",
    "to_csr",
    "to_dense",
    "density",
    "diagonal",
    "row_sums",
    "sub_dense",
    "Factorization",
    "factorize",
    "ph_moments",
]


def is_sparse(M) -> bool:
    """``True`` for any scipy sparse matrix/array."""
    return _sp.issparse(M)


def to_csr(M) -> "_sp.csr_array":
    """Coerce to ``csr_array`` (cheap when already CSR)."""
    if _sp.issparse(M):
        return _sp.csr_array(M)
    return _sp.csr_array(np.asarray(M, dtype=np.float64))


def to_dense(M) -> np.ndarray:
    """Coerce to a float64 ``ndarray`` (no copy when already one)."""
    if _sp.issparse(M):
        return M.toarray()
    return np.asarray(M, dtype=np.float64)


def density(M) -> float:
    """Fill fraction ``nnz / (rows * cols)`` (0.0 for empty shapes)."""
    rows, cols = M.shape
    cells = rows * cols
    if cells == 0:
        return 0.0
    if _sp.issparse(M):
        return M.nnz / cells
    return float(np.count_nonzero(M)) / cells


def diagonal(M) -> np.ndarray:
    """Main diagonal as a 1-D array, either representation."""
    if _sp.issparse(M):
        return np.asarray(M.diagonal())
    return np.diag(np.asarray(M))


def row_sums(M) -> np.ndarray:
    """Row sums as a 1-D array, either representation."""
    if _sp.issparse(M):
        return np.asarray(M.sum(axis=1)).ravel()
    return np.asarray(M).sum(axis=1)


def sub_dense(M, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Dense submatrix ``M[rows, cols]`` from either representation.

    The consumers (boundary solve, extraction) take small index sets
    out of possibly-large blocks, so the result is always dense.
    """
    if rows.size == 0 or cols.size == 0:
        return np.zeros((rows.size, cols.size))
    if _sp.issparse(M):
        return M[np.ix_(rows, cols)].toarray()
    return M[np.ix_(rows, cols)]


class Factorization:
    """LU factorization of a square block, dense or sparse.

    One object, two engines: :func:`scipy.linalg.lu_factor` below the
    sparse threshold, :func:`scipy.sparse.linalg.splu` above it.  Both
    expose ``solve`` (``A x = b``) and ``solve_transposed``
    (``A^T x = b``) for 1-D or 2-D right-hand sides.
    """

    def __init__(self, A, *, backend: str):
        from scipy import linalg as _la

        self.shape = A.shape
        if backend == "sparse":
            # No copy when ``A`` is already CSC; one conversion otherwise.
            self._lu = _spla.splu(_sp.csc_array(A))
            self._dense = None
        else:
            self._lu = None
            self._dense = _la.lu_factor(to_dense(A))

    def solve(self, b: np.ndarray) -> np.ndarray:
        from scipy import linalg as _la

        if self._lu is not None:
            return self._lu.solve(np.asarray(b, dtype=np.float64))
        return _la.lu_solve(self._dense, b)

    def solve_transposed(self, b: np.ndarray) -> np.ndarray:
        from scipy import linalg as _la

        if self._lu is not None:
            return self._lu.solve(np.asarray(b, dtype=np.float64),
                                  trans="T")
        return _la.lu_solve(self._dense, b, trans=1)


def factorize(A, *, backend: str | None = None) -> Factorization:
    """Factorize a square block, choosing the engine by size/density."""
    from repro.kernels.backend import select_backend

    chosen = select_backend(backend, A.shape[0], density(A))
    return Factorization(A, backend=chosen)


def ph_moments(alpha: np.ndarray, S, kmax: int, *,
               backend: str | None = None) -> list[float]:
    """Raw moments ``E[X^k] = k! alpha (-S)^{-k} e`` for ``k = 1..kmax``.

    The dense reference (:meth:`repro.phasetype.PhaseType.moment`)
    inverts ``-S`` outright — an ``O(order^3)`` dense inversion that
    dominates the fixed point's ``reduce`` stage once the effective
    quantum's order grows with the truncated chain.  Here one LU
    factorization (sparse ``splu`` when the sub-generator is large and
    sparse — it is block-bidiagonal by construction) serves every
    moment via back-substitutions: ``y_k = (-S)^{-1} y_{k-1}`` with
    ``y_0 = e``, ``m_k = k! alpha y_k``.  ``-S`` is converted to CSC
    once; that one operand serves the density test and ``splu``.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    n = alpha.shape[0]
    negS = _sp.csc_array(-S if is_sparse(S) else -to_dense(S))
    lu = factorize(negS, backend=backend)
    y = np.ones(n)
    fact = 1.0
    out: list[float] = []
    for k in range(1, kmax + 1):
        y = lu.solve(y)
        fact *= k
        out.append(float(fact * (alpha @ y)))
    return out
