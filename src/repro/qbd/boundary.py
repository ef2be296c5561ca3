"""Boundary balance equations of a QBD.

With the repeating portion expressed through ``R`` (Theorem 4.2), the
only remaining unknowns are the boundary vectors
``pi_0, ..., pi_b``.  They satisfy the balance equations (25)–(27) of
the paper restricted to the boundary columns:

* column ``j < b``:   ``sum_{i ~ j} pi_i B[i][j] = 0``
* column ``j = b``:   ``pi_{b-1} B[b-1][b] + pi_b (B[b][b] + R A2) = 0``

together with the normalization (eq. 24)::

    sum_{i<b} pi_i e + pi_b (I - R)^{-1} e = 1 .

The balance system has rank deficiency one (global balance is
redundant), so one scalar equation is replaced by the normalization.

Two solve paths exist.  The dense reference below materializes the
full ``n x n`` system; it is the fast case for small boundaries and
the fallback of last resort.  Above the backend selector's size
threshold the block-tridiagonal elimination of
:func:`repro.kernels.boundary.solve_boundary_blocktridiag` takes over
(``O(b d^3)`` instead of ``O(n^3)``, nothing larger than one block
ever materialized); any numerical degeneracy there falls back to the
dense path transparently.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConvergenceError, ValidationError
from repro.kernels import (
    select_backend,
    solve_boundary_blocktridiag,
    to_dense,
)
from repro.obs import metrics
from repro.qbd.structure import QBDProcess

__all__ = ["balance_matrix", "solve_boundary"]


def balance_matrix(process: QBDProcess, offsets: np.ndarray) -> np.ndarray:
    """Dense boundary balance matrix ``M`` of ``x M = 0``.

    ``x = [pi_0 ... pi_b]``, and level ``i`` occupies rows and columns
    ``offsets[i]:offsets[i + 1]``.  The repeating tail (``R A2`` in the
    level-``b`` column) is not folded in.
    """
    b = process.boundary_levels
    n = int(offsets[-1])
    M = np.zeros((n, n))
    for j in range(b + 1):
        cols = slice(offsets[j], offsets[j + 1])
        for i in (j - 1, j, j + 1):
            if i < 0 or i > b:
                continue
            blk = process.boundary[i][j]
            if blk is None:
                continue
            M[offsets[i]:offsets[i + 1], cols] += to_dense(blk)
    return M


def solve_boundary(process: QBDProcess, R: np.ndarray, *,
                   backend: str | None = None) -> list[np.ndarray]:
    """Solve for the boundary stationary vectors ``pi_0 .. pi_b``.

    Parameters
    ----------
    process:
        The QBD description (boundary blocks may be dense or CSR).
    R:
        The rate matrix of the repeating portion, with ``sp(R) < 1``.
    backend:
        ``"auto"`` (default), ``"dense"``, or ``"sparse"``.  ``auto``
        routes boundaries past the size threshold to the
        block-tridiagonal kernel; ``dense`` forces the reference path;
        ``sparse`` uses the block kernel whenever the system is big
        enough for it to pay.  The block kernel's failures always fall
        back to the dense reference.

    Returns
    -------
    list of ndarray
        Boundary level vectors, not yet padded with the geometric tail.
    """
    b = process.boundary_levels
    dims = process.boundary_dims()
    offsets = np.concatenate([[0], np.cumsum(dims)]).astype(int)
    n = int(offsets[-1])
    R = np.asarray(R, dtype=np.float64)
    d = process.phase_dim
    if R.shape != (d, d):
        raise ValidationError(f"R must be {d}x{d}, got {R.shape}")

    if b >= 1 and select_backend(backend, n, site="boundary") == "sparse":
        try:
            pi = solve_boundary_blocktridiag(process, R, backend=backend)
            metrics.inc("boundary.solves", path="blocktridiag")
            return pi
        except ConvergenceError:
            # Degenerate elimination: the dense path handles it.
            metrics.inc("boundary.dense_fallbacks")

    metrics.inc("boundary.solves", path="dense")

    M = balance_matrix(process, offsets)
    # Fold the repeating tail into the level-b column:
    # pi_{b+1} A2 = pi_b R A2.
    M[offsets[b]:offsets[b + 1], offsets[b]:offsets[b + 1]] += \
        R @ to_dense(process.A2)

    # Normalization coefficients: 1 for levels < b, (I-R)^{-1} e for level b.
    norm = np.ones(n)
    tail = np.linalg.solve(np.eye(d) - R, np.ones(d))
    if np.any(tail < 0):
        raise ValidationError(
            "(I - R)^{-1} e has negative entries; sp(R) >= 1 (unstable QBD)"
        )
    norm[offsets[b]:offsets[b + 1]] = tail

    # Replace one balance column with the normalization.  Any single
    # balance equation is redundant for an irreducible chain; pick the
    # one whose column has the largest norm to keep conditioning sane.
    col_norms = np.linalg.norm(M, axis=0)
    if not np.any(col_norms > 0.0):
        raise ValidationError("boundary balance system is identically zero")
    drop = int(np.argmax(col_norms))
    A = M.copy()
    A[:, drop] = norm
    # Unreachable phases show up as all-zero balance columns (no flux
    # in or out): they carry no probability, but left in place they
    # make the system singular — and they poison the column
    # equilibration below with 0/0 NaNs before the lstsq fallback can
    # mask the damage.  Pin each such state to pi_k = 0 explicitly.
    dead = np.flatnonzero(col_norms == 0.0)
    for k in dead:
        if k != drop:
            A[k, k] = 1.0
    rhs = np.zeros(n)
    rhs[drop] = 1.0
    # Column equilibration: the balance columns mix rates spanning many
    # orders of magnitude with the O(1) normalization column; scaling
    # each column to unit norm is a diagonal row scaling of ``A^T x =
    # rhs`` (solution unchanged, pivoting much saner).
    scales = np.linalg.norm(A, axis=0)
    scales[scales == 0.0] = 1.0
    try:
        x = np.linalg.solve((A / scales).T, rhs / scales)
        residual = float(np.max(np.abs(x @ M))) if n else 0.0
    except np.linalg.LinAlgError:
        residual = np.inf
        x = None
    if x is None or residual > 1e-6 * max(1.0, float(np.max(np.abs(M)))) \
            or np.any(x < -1e-8):
        # Fall back to least squares on the full system + normalization.
        full = np.hstack([M, norm[:, None]])
        for k in dead:
            full[k, k] = 1.0  # keep the dead states pinned to zero
        rhs_full = np.zeros(n + 1)
        rhs_full[-1] = 1.0
        x, *_ = np.linalg.lstsq(full.T, rhs_full, rcond=None)
    x = np.clip(x, 0.0, None)
    # Re-normalize exactly against the tail-aware mass.
    mass = float(x @ norm)
    if mass <= 0:
        raise ValidationError("boundary solve produced zero probability mass")
    x = x / mass
    return [x[offsets[i]:offsets[i + 1]].copy() for i in range(b + 1)]
