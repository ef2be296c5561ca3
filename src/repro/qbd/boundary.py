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

Two solve paths exist.  The dense reference below copies the
process's boundary generator (:attr:`QBDProcess.G`, the full ``n x n``
system) and folds ``R A2`` into its last diagonal block; it is the
fast case for small boundaries and the fallback of last resort.
Above the backend selector's size threshold the block-tridiagonal
elimination of
:func:`repro.kernels.boundary.solve_boundary_blocktridiag` takes over
(``O(b d^3)`` instead of ``O(n^3)``, nothing larger than one block
ever materialized); any numerical degeneracy there falls back to the
dense path transparently.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from repro.errors import ConvergenceError, ValidationError
from repro.kernels import (
    select_backend,
    solve_boundary_blocktridiag,
    to_dense,
)
from repro.obs import metrics
from repro.qbd.structure import QBDProcess

__all__ = ["solve_boundary"]


def solve_boundary(process: QBDProcess, R: np.ndarray, *,
                   backend: str | None = None,
                   ) -> tuple[list[np.ndarray], np.ndarray]:
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
    (list of ndarray, ndarray)
        Boundary level vectors, not yet padded with the geometric tail,
        and the normalization's tail vector ``(I - R)^{-1} e`` (kept on
        :class:`~repro.qbd.stationary.QBDStationaryDistribution` so
        the extraction's truncation walk does not solve it again).
    """
    b = process.boundary_levels
    offsets = list(accumulate(process.boundary_dims(), initial=0))
    n = offsets[-1]
    R = np.asarray(R, dtype=np.float64)
    d = process.phase_dim
    if R.shape != (d, d):
        raise ValidationError(f"R must be {d}x{d}, got {R.shape}")
    # Normalization coefficients of level b: (I-R)^{-1} e.
    tail = np.linalg.solve(np.eye(d) - R, np.ones(d))
    if (tail < 0).any():
        raise ValidationError(
            "(I - R)^{-1} e has negative entries; sp(R) >= 1 (unstable QBD)"
        )

    if b >= 1 and select_backend(backend, n, site="boundary") == "sparse":
        try:
            pi = solve_boundary_blocktridiag(process, R, tail=tail,
                                             backend=backend)
            metrics.inc("boundary.solves", path="blocktridiag")
            return pi, tail
        except ConvergenceError:
            # Degenerate elimination: the dense path handles it.
            metrics.inc("boundary.dense_fallbacks")

    metrics.inc("boundary.solves", path="dense")

    # x M = 0 for x = [pi_0 ... pi_b]: the boundary generator with the
    # repeating tail folded into the level-b column,
    # pi_{b+1} A2 = pi_b R A2.
    M = process.G.copy()
    M[offsets[b]:, offsets[b]:] += R @ to_dense(process.A2)

    # Normalization coefficients: 1 for levels < b, the tail for level b.
    norm = np.ones(n)
    norm[offsets[b]:] = tail

    # Replace one balance column with the normalization.  Any single
    # balance equation is redundant for an irreducible chain; pick the
    # one whose column has the largest norm to keep conditioning sane.
    # (``np.linalg.norm(M, axis=0)``, without its conjugate copy.)
    col_norms = np.sqrt(np.add.reduce(M * M, axis=0))
    if not (col_norms > 0.0).any():
        raise ValidationError("boundary balance system is identically zero")
    drop = int(col_norms.argmax())
    # Unreachable phases show up as all-zero balance columns (no flux
    # in or out): they carry no probability, but left in place they
    # make the system singular — and they poison the column
    # equilibration below with 0/0 NaNs before the lstsq fallback can
    # mask the damage.  Pin each such state to pi_k = 0 explicitly.
    dead = np.flatnonzero(col_norms == 0.0)
    # Column equilibration: the balance columns mix rates spanning many
    # orders of magnitude with the O(1) normalization column; scaling
    # each column to unit norm is a diagonal row scaling of ``A^T x =
    # rhs`` (solution unchanged, pivoting much saner).  ``A`` is ``M``
    # with column ``drop`` replaced by ``norm`` and each dead state
    # pinned (``A[k, k] = 1``), so its column norms are ``M``'s except
    # there: a pinned column's is 1, and the replaced column's is
    # accumulated row by row, as an axis-0 reduction adds.
    scales = col_norms.copy()
    scales[drop] = np.sqrt(np.add.accumulate(norm * norm)[-1])
    scales[dead] = 1.0
    scaled = M / scales
    scaled[:, drop] = norm / scales[drop]
    scaled[dead, dead] = 1.0
    rhs = np.zeros(n)
    rhs[drop] = 1.0
    try:
        x = np.linalg.solve(scaled.T, rhs / scales)
        residual = float(np.abs(x @ M).max())
    except np.linalg.LinAlgError:
        residual = np.inf
        x = None
    if x is None or residual > 1e-6 * max(1.0, M.max(), -M.min()) \
            or (x < -1e-8).any():
        # Fall back to least squares on the full system + normalization.
        full = np.hstack([M, norm[:, None]])
        full[dead, dead] = 1.0  # keep the dead states pinned to zero
        rhs_full = np.zeros(n + 1)
        rhs_full[-1] = 1.0
        x, *_ = np.linalg.lstsq(full.T, rhs_full, rcond=None)
    x = np.maximum(x, 0.0)
    # Re-normalize exactly against the tail-aware mass.
    mass = float(x @ norm)
    if mass <= 0:
        raise ValidationError("boundary solve produced zero probability mass")
    x = x / mass
    return [x[offsets[i]:offsets[i + 1]].copy() for i in range(b + 1)], tail
