"""Linear-algebra kernels for Markov-chain computations.

The workhorse here is :func:`solve_stationary_gth`, the
Grassmann–Taksar–Heyman (GTH) elimination algorithm.  GTH computes the
stationary vector of an irreducible chain using only additions and
multiplications of non-negative quantities (the diagonal is recomputed
as a row sum at every elimination step), so it is immune to the
catastrophic cancellation that plagues naive LU approaches on stiff
generators.  Both DTMC (stochastic ``P``) and CTMC (generator ``Q``)
inputs are supported through a shared elimination core.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReducibleChainError, ValidationError

__all__ = [
    "spectral_radius",
    "kron_sum",
    "solve_stationary_gth",
    "solve_stationary_dtmc",
    "stationary_from_generator",
    "drazin_like_solve",
    "geometric_tail_sum",
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


def _gth_core(T: np.ndarray) -> np.ndarray:
    """Shared GTH elimination on a rate-like matrix.

    ``T`` must have non-negative off-diagonals; the diagonal is ignored
    (recomputed from row sums), which is exactly what makes GTH stable.
    Returns the normalized stationary vector.
    """
    n = T.shape[0]
    if n == 0:
        raise ValidationError("cannot solve a 0-state chain")
    if n == 1:
        return np.ones(1)
    A = np.array(T, dtype=np.float64, copy=True)
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


def solve_stationary_gth(Q: np.ndarray) -> np.ndarray:
    """Stationary vector of an irreducible CTMC generator via GTH.

    Solves ``pi Q = 0``, ``pi e = 1``.  Raises
    :class:`~repro.errors.ReducibleChainError` if elimination detects a
    reducible structure.
    """
    Q = np.asarray(Q, dtype=np.float64)
    return _gth_core(Q)


def solve_stationary_dtmc(P: np.ndarray) -> np.ndarray:
    """Stationary vector of an irreducible DTMC via GTH.

    Solves ``pi P = pi``, ``pi e = 1``.  The elimination operates on
    ``P`` with its diagonal ignored, which is equivalent to operating on
    the generator ``P - I``.
    """
    P = np.asarray(P, dtype=np.float64)
    return _gth_core(P)


def stationary_from_generator(Q: np.ndarray, *, method: str = "gth") -> np.ndarray:
    """Stationary vector of a CTMC generator.

    Parameters
    ----------
    Q:
        Irreducible generator matrix.
    method:
        ``"gth"`` (default, numerically robust) or ``"direct"`` (replace
        one balance equation by the normalization and solve the dense
        linear system; faster for large well-conditioned chains).
    """
    Q = np.asarray(Q, dtype=np.float64)
    if method == "gth":
        return solve_stationary_gth(Q)
    if method == "direct":
        n = Q.shape[0]
        A = Q.T.copy()
        A[-1, :] = 1.0
        b = np.zeros(n)
        b[-1] = 1.0
        try:
            pi = np.linalg.solve(A, b)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
            raise ReducibleChainError(f"direct stationary solve failed: {exc}") from exc
        if np.any(pi < -1e-8):
            raise ReducibleChainError(
                "direct stationary solve produced negative probabilities; "
                "the chain is likely reducible"
            )
        pi = np.clip(pi, 0.0, None)
        return pi / pi.sum()
    raise ValidationError(f"unknown stationary method {method!r}")


def drazin_like_solve(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Least-squares solve ``X A = B`` for possibly singular ``A``.

    Used for group-inverse style computations (e.g. deviation matrices);
    returns the minimum-norm solution.
    """
    X, *_ = np.linalg.lstsq(np.asarray(A, dtype=np.float64).T,
                            np.asarray(B, dtype=np.float64).T, rcond=None)
    return X.T


def geometric_tail_sum(R: np.ndarray, *, weight: int = 0) -> np.ndarray:
    """Closed forms for matrix-geometric tail sums.

    For ``sp(R) < 1``:

    * ``weight=0`` returns ``sum_{n>=0} R^n = (I - R)^{-1}``
    * ``weight=1`` returns ``sum_{n>=0} n R^n = R (I - R)^{-2}``
    * ``weight=2`` returns ``sum_{n>=0} n^2 R^n = R (I + R) (I - R)^{-3}``

    These are the sums behind the closed-form queue-length moments of
    eq. (37) in the paper.
    """
    R = np.asarray(R, dtype=np.float64)
    n = R.shape[0]
    ImR = np.eye(n) - R
    inv = np.linalg.inv(ImR)
    if weight == 0:
        return inv
    if weight == 1:
        return R @ inv @ inv
    if weight == 2:
        return R @ (np.eye(n) + R) @ inv @ inv @ inv
    raise ValidationError(f"unsupported weight {weight}; use 0, 1 or 2")
