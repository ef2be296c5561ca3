"""Structural validation of probabilistic matrices and vectors.

All checks raise a subclass of :class:`repro.errors.ValidationError` on
failure and return the validated object as a contiguous ``float64``
array on success, so they can be used as normalizing gates at API
boundaries::

    S = check_subgenerator(S)       # now guaranteed to be a sub-generator
    alpha = check_subprobability_vector(alpha)

Tolerances are absolute and default to ``1e-9`` scaled by the matrix
magnitude where appropriate; they can be overridden per call.
"""

from __future__ import annotations

import numpy as np

from repro.errors import NotAPhaseTypeError, ValidationError

__all__ = [
    "as_float_array",
    "check_subprobability_vector",
    "check_subgenerator",
]

#: Default absolute tolerance for structural checks.
DEFAULT_ATOL = 1e-9


def as_float_array(x, *, ndim: int | None = None, name: str = "array") -> np.ndarray:
    """Coerce ``x`` to a contiguous float64 ndarray, optionally checking rank.

    Parameters
    ----------
    x:
        Array-like input.
    ndim:
        Required number of dimensions, or ``None`` to accept any.
    name:
        Name used in error messages.
    """
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if ndim is not None and arr.ndim != ndim:
        raise ValidationError(
            f"{name} must be {ndim}-dimensional, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def check_subprobability_vector(v, *, atol: float = DEFAULT_ATOL,
                                name: str = "sub-probability vector") -> np.ndarray:
    """Validate a non-negative vector with sum at most 1."""
    v = as_float_array(v, ndim=1, name=name)
    if np.any(v < -atol):
        raise ValidationError(f"{name} has negative entries: min={v.min()}")
    s = float(v.sum())
    if s > 1.0 + max(atol, atol * max(v.size, 1)):
        raise ValidationError(f"{name} must sum to <= 1, got {s}")
    return np.clip(v, 0.0, None)


def _rate_scale(Q: np.ndarray) -> float:
    """Magnitude scale used for relative tolerances on rate matrices."""
    scale = float(np.max(np.abs(Q))) if Q.size else 1.0
    return max(scale, 1.0)


def check_subgenerator(S, *, atol: float | None = None, require_invertible: bool = True,
                       name: str = "sub-generator") -> np.ndarray:
    """Validate that ``S`` is a PH sub-generator.

    Requirements: square; off-diagonal entries ``>= 0``; row sums
    ``<= 0``; and, when ``require_invertible``, ``S`` non-singular
    (equivalently: every phase is transient, so absorption is certain
    and the PH distribution is proper).
    """
    S = as_float_array(S, ndim=2, name=name)
    n, m = S.shape
    if n != m:
        raise NotAPhaseTypeError(f"{name} must be square, got {S.shape}")
    tol = (DEFAULT_ATOL if atol is None else atol) * _rate_scale(S) * max(n, 1)
    off = S.copy()
    np.fill_diagonal(off, 0.0)
    if np.any(off < -tol):
        i, j = np.unravel_index(np.argmin(off), off.shape)
        raise NotAPhaseTypeError(
            f"{name} has negative off-diagonal entry S[{i},{j}]={S[i, j]}"
        )
    rows = S.sum(axis=1)
    if np.any(rows > tol):
        i = int(np.argmax(rows))
        raise NotAPhaseTypeError(
            f"{name} row {i} sums to {rows[i]:.3e}, expected <= 0"
        )
    if np.any(np.diag(S) > tol):
        raise NotAPhaseTypeError(f"{name} has a positive diagonal entry")
    if require_invertible and n > 0:
        # A singular sub-generator means some phase never reaches
        # absorption, i.e. the "distribution" places mass at infinity.
        cond = np.linalg.cond(S)
        if not np.isfinite(cond):
            raise NotAPhaseTypeError(f"{name} is singular: some phase is recurrent")
        if cond > 1e14:
            raise NotAPhaseTypeError(
                f"{name} is numerically singular (cond={cond:.2e})"
            )
    return S
