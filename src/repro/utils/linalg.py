"""Linear-algebra kernels for Markov-chain computations.

The workhorse here is :func:`solve_stationary_gth`, the
Grassmann–Taksar–Heyman (GTH) elimination algorithm.  GTH computes the
stationary vector of an irreducible chain using only additions and
multiplications of non-negative quantities (the diagonal is recomputed
as a row sum at every elimination step), so it is immune to the
catastrophic cancellation that plagues naive LU approaches on stiff
generators.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReducibleChainError, ValidationError

__all__ = [
    "spectral_radius",
    "kron_sum",
    "solve_stationary_gth",
]


def spectral_radius(A: np.ndarray) -> float:
    """Return the spectral radius (largest |eigenvalue|) of ``A``."""
    A = np.asarray(A, dtype=np.float64)
    if A.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(A))))


def kron_sum(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kronecker sum ``A ⊕ B = A ⊗ I + I ⊗ B``.

    The generator of two independent Markov processes running in
    parallel; used e.g. for the minimum of two PH distributions.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    return np.kron(A, np.eye(B.shape[0])) + np.kron(np.eye(A.shape[0]), B)


def solve_stationary_gth(Q: np.ndarray) -> np.ndarray:
    """Stationary vector of an irreducible CTMC generator via GTH.

    Solves ``pi Q = 0``, ``pi e = 1``.  Only the off-diagonal rates are
    read (the diagonal is recomputed from row sums), which is exactly
    what makes GTH stable.  Raises
    :class:`~repro.errors.ReducibleChainError` if elimination detects a
    reducible structure.
    """
    Q = np.asarray(Q, dtype=np.float64)
    n = Q.shape[0]
    if n == 0:
        raise ValidationError("cannot solve a 0-state chain")
    if n == 1:
        return np.ones(1)
    A = np.array(Q, dtype=np.float64, copy=True)
    np.fill_diagonal(A, 0.0)

    # Forward elimination: fold state k into states 0..k-1.  The rank-1
    # updates also land on the diagonal, but no step reads a diagonal
    # entry (the scales, the updates and the back substitution all take
    # off-diagonal ones), so it is left as it falls.
    for k in range(n - 1, 0, -1):
        scale = A[k, :k].sum()
        if scale <= 0.0:
            raise ReducibleChainError(
                f"GTH elimination failed at state {k}: no transitions to "
                "remaining states; the chain is reducible"
            )
        A[:k, k] /= scale
        # Rank-1 update: rate i->j gains (rate i->k) * P(k->j | leave k).
        A[:k, :k] += np.outer(A[:k, k], A[k, :k])

    # Back substitution.
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = pi[:k] @ A[:k, k]
    total = pi.sum()
    if not np.isfinite(total) or total <= 0:
        raise ReducibleChainError("GTH back-substitution produced invalid mass")
    return pi / total
