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
    "to_dense",
    "density",
    "row_sums",
    "Factorization",
    "factorize",
    "band_csc",
    "ph_moments",
]


def is_sparse(M) -> bool:
    """``True`` for any scipy sparse matrix/array."""
    return _sp.issparse(M)


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


def row_sums(M) -> np.ndarray:
    """Row sums as a 1-D array, either representation."""
    if _sp.issparse(M):
        return np.asarray(M.sum(axis=1)).ravel()
    return np.asarray(M).sum(axis=1)


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


def band_csc(M: np.ndarray, rows: np.ndarray, cols: np.ndarray, *,
             negate: bool = False) -> "_sp.csc_array":
    """``csc_array(M)`` (``-M`` with ``negate``) read from a pattern.

    ``rows``/``cols`` list every position where the dense ``M`` may be
    nonzero, column by column with rows ascending; ``M`` must be zero
    everywhere else.  Exact zeros are dropped as the dense conversion
    drops them, so ``data``, ``indices`` and ``indptr`` equal
    ``csc_array(M)``'s while only the pattern is read.
    """
    vals = np.asarray(M)[rows, cols]
    if negate:
        vals = -vals
    keep = vals != 0
    data = vals[keep]
    n = M.shape[1]
    # The index width the dense conversion picks.
    index = np.int32 if max(max(M.shape), data.size) <= \
        np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(np.bincount(cols[keep], minlength=n), out=indptr[1:])
    return _sp.csc_array((data, rows[keep].astype(index), indptr),
                         shape=M.shape)


def ph_moments(alpha: np.ndarray, S, kmax: int, *,
               backend: str | None = None,
               pattern: tuple[np.ndarray, np.ndarray] | None = None,
               ) -> list[float]:
    """Raw moments ``E[X^k] = k! alpha (-S)^{-k} e`` for ``k = 1..kmax``.

    The dense reference (:meth:`repro.phasetype.PhaseType.moment`)
    inverts ``-S`` outright — an ``O(order^3)`` dense inversion that
    dominates the fixed point's ``reduce`` stage once the effective
    quantum's order grows with the truncated chain.  Here one LU
    factorization (sparse ``splu`` when the sub-generator is large and
    sparse — it is block-bidiagonal by construction) serves every
    moment via back-substitutions: ``y_k = (-S)^{-1} y_{k-1}`` with
    ``y_0 = e``, ``m_k = k! alpha y_k``.  ``-S`` is converted to CSC
    once; that one operand serves the density test and ``splu``.  A
    dense ``S`` with a known ``pattern`` (the ``rows, cols`` of
    :func:`band_csc`) is converted from the pattern alone, to the same
    operand.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    n = alpha.shape[0]
    if pattern is not None and not is_sparse(S):
        negS = band_csc(S, *pattern, negate=True)
    else:
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
