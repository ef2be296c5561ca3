"""Block-tridiagonal boundary solve for a QBD.

The boundary balance system ``x M = 0`` of
:func:`repro.qbd.boundary.solve_boundary` is block-tridiagonal by
construction — level ``j`` only exchanges probability flux with levels
``j - 1`` and ``j + 1`` — yet the dense reference materializes the
full ``n x n`` matrix and runs an ``O(n^3)`` solve.  With boundary
levels growing linearly in the machine size ``P`` (``b = c_p = P/g``)
that cubic cost is what locks the scaling study out of P in the
hundreds.

This module solves the same system by block-LU forward elimination.
Write ``D_j = B[j][j]`` (with ``R A2`` folded into ``D_b``),
``U_j = B[j][j+1]`` and ``L_j = B[j][j-1]``.  The Schur complements

    C_0 = D_0,      C_j = D_j - L_j C_{j-1}^{-1} U_{j-1}

satisfy ``x_j = -x_{j+1} L_{j+1} C_j^{-1}`` for ``j < b`` and
``x_b C_b = 0``, so ``pi_b`` is a left null vector of the *last* Schur
complement (a ``d x d`` SVD) and the remaining levels come from back
substitution — ``O(b d^3)`` total, never materializing anything larger
than one block.

When consecutive interior levels carry identical blocks (a
level-independent stretch of the boundary) the Schur recursion
converges geometrically to a fixed point; the elimination detects the
stall and freezes ``C`` for the rest of the stretch, so the forward
pass costs ``O(1)`` factorizations instead of ``O(b)``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConvergenceError, ValidationError
from repro.kernels.sparse import Factorization, density, is_sparse, to_dense
from repro.kernels.backend import select_backend

__all__ = ["solve_boundary_blocktridiag"]

#: Relative stall threshold for freezing the Schur recursion on a
#: level-independent stretch: tight enough that the frozen complement
#: agrees with the exact one to the last few ulps (the parity suite
#: holds the block path to 1e-10 of the dense reference).
_FREEZE_RTOL = 1e-14


def _same_blocks(p, q) -> bool:
    """Value-equality of two optional blocks without densifying."""
    if p is None or q is None:
        return p is q
    if p is q:
        return True
    if p.shape != q.shape:
        return False
    if is_sparse(p) or is_sparse(q):
        if not (is_sparse(p) and is_sparse(q)):
            return False
        diff = (p - q)
        return diff.nnz == 0 or float(abs(diff).max()) == 0.0
    return np.array_equal(p, q)


def solve_boundary_blocktridiag(process, R: np.ndarray, *,
                                tail: np.ndarray,
                                backend: str | None = None,
                                ) -> list[np.ndarray]:
    """Boundary vectors ``pi_0 .. pi_b`` via block-LU elimination.

    Accepts the same inputs as the dense
    :func:`repro.qbd.boundary.solve_boundary` (boundary blocks may
    additionally be CSR) plus the normalization's tail vector
    ``tail = (I - R)^{-1} e``, which that caller has already solved
    and checked, and returns the same normalized level vectors.
    Raises :class:`~repro.errors.ConvergenceError` when the
    elimination degenerates (singular Schur complement, residual
    check failure, negative mass) — callers treat that as a signal to
    fall back to the dense reference path.
    """
    from repro.resilience.faults import maybe_fault

    maybe_fault("kernels.sparse", key="boundary")
    b = process.boundary_levels
    dims = process.boundary_dims()
    d = process.phase_dim
    R = np.asarray(R, dtype=np.float64)
    if R.shape != (d, d):
        raise ValidationError(f"R must be {d}x{d}, got {R.shape}")

    boundary = process.boundary
    RA2 = R @ to_dense(process.A2)
    scale = max(1.0, float(np.max(np.abs(to_dense(boundary[b][b])))))

    def _diag(j: int) -> np.ndarray:
        D = to_dense(boundary[j][j])
        if j == b:
            D = D + RA2
        return D

    # Forward elimination: factorizations of C_j and the coupling
    # products Z_j = C_j^{-1} U_j needed by both passes.  ``lus[j]``
    # and ``Zs[j]`` may alias the frozen stretch's shared objects.
    lus: list[Factorization] = []
    Zs: list[np.ndarray] = []
    C_prev: np.ndarray | None = None
    frozen = False

    def _stretch_continues(j: int) -> bool:
        # Reusing (C_{j-1}, Z_{j-1}) as (C_j, Z_j) needs the level-j
        # triple to repeat the level-(j-1) one: same diagonal, same
        # down-block, same up-block.
        return (_same_blocks(boundary[j][j], boundary[j - 1][j - 1])
                and _same_blocks(boundary[j][j - 1],
                                 boundary[j - 1][j - 2] if j >= 2 else None)
                and _same_blocks(boundary[j][j + 1], boundary[j - 1][j]))

    for j in range(b):
        if frozen and _stretch_continues(j):
            lus.append(lus[-1])
            Zs.append(Zs[-1])
            continue
        frozen = False
        C = _diag(j)
        if j > 0:
            L = boundary[j][j - 1]
            if L is not None:
                C = C - to_dense(L @ Zs[j - 1])
        try:
            lu = Factorization(
                C, backend=select_backend(backend, C.shape[0], density(C)))
        except RuntimeError as exc:  # splu raises RuntimeError on singular
            raise ConvergenceError(
                f"block elimination: singular Schur complement at level {j}"
                f" ({exc})") from None
        U = boundary[j][j + 1]
        if U is None:
            raise ConvergenceError(
                f"block elimination: boundary level {j} has no upward "
                "block; the chain is reducible across levels")
        Z = lu.solve(to_dense(U))
        if not np.all(np.isfinite(Z)):
            raise ConvergenceError(
                f"block elimination: singular Schur complement at level {j}")
        lus.append(lu)
        Zs.append(Z)
        # Freeze detection: a repeated block triple with a stalled
        # complement means the Schur recursion has hit its fixed point;
        # subsequent identical levels can reuse this factorization.
        if j >= 2 and C_prev is not None and C.shape == C_prev.shape \
                and _stretch_continues(j) \
                and float(np.max(np.abs(C - C_prev))) <= _FREEZE_RTOL * scale:
            frozen = True
        C_prev = C

    # Last Schur complement: pi_b spans its left null space.
    C_b = _diag(b)
    if b > 0:
        L = boundary[b][b - 1]
        if L is not None:
            C_b = C_b - to_dense(L @ Zs[b - 1])
    try:
        _, svals, Vh = np.linalg.svd(C_b.T)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"block elimination: SVD of final complement failed ({exc})"
        ) from None
    if d > 1 and svals[-2] <= 1e-12 * max(svals[0], 1.0):
        raise ConvergenceError(
            "block elimination: final Schur complement has null space of "
            "dimension > 1", residual=float(svals[-2]))
    pi = [np.zeros(0)] * (b + 1)
    pi[b] = Vh[-1]
    if pi[b].sum() < 0:
        pi[b] = -pi[b]

    # Back substitution: x_{j} = -x_{j+1} L_{j+1} C_j^{-1}.
    for j in range(b - 1, -1, -1):
        L = boundary[j + 1][j]
        if L is None:
            pi[j] = np.zeros(dims[j])
            continue
        v = np.asarray(pi[j + 1] @ L).ravel()
        pi[j] = -lus[j].solve_transposed(v)

    # Residual check against the balance columns, computed blockwise.
    worst = 0.0
    for j in range(b + 1):
        r = pi[j] @ _diag(j)
        if j > 0:
            U = boundary[j - 1][j]
            if U is not None:
                r = r + np.asarray(pi[j - 1] @ U).ravel()
        if j < b:
            L = boundary[j + 1][j]
            if L is not None:
                r = r + np.asarray(pi[j + 1] @ L).ravel()
        worst = max(worst, float(np.max(np.abs(r))) if r.size else 0.0)
    amp = max(1.0, max(float(np.max(np.abs(v))) for v in pi))
    if not np.isfinite(worst) or worst > 1e-8 * scale * amp:
        raise ConvergenceError(
            "block elimination residual too large", residual=worst)

    # Tail-aware normalization (eq. 24), as in the dense reference.
    if min(float(v.min()) for v in pi if v.size) < -1e-8 * amp:
        raise ConvergenceError(
            "block elimination produced a significantly negative vector")
    pi = [np.clip(v, 0.0, None) for v in pi]
    mass = sum(float(v.sum()) for v in pi[:b]) + float(pi[b] @ tail)
    if mass <= 0:
        raise ValidationError("boundary solve produced zero probability mass")
    return [v / mass for v in pi]
