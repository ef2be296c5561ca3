"""The dense boundary solve as the blocks' own column assembly: the
bit-identity oracle.

It assembles ``x M = 0`` block by block into a fresh array and
equilibrates a copy of the system whose drop column and dead-state
pins are written in place, as the solve did before the boundary
generator ``G`` existed.  ``tests/qbd/test_boundary.py`` asserts that
:func:`repro.qbd.boundary.solve_boundary` returns exactly its bits;
nothing in ``src/`` imports it.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import to_dense

__all__ = ["solve_boundary_dense"]


def solve_boundary_dense(process, R) -> tuple[list[np.ndarray], bool]:
    """``(pi_0 .. pi_b, took_lstsq)`` of the dense boundary solve."""
    b = process.boundary_levels
    dims = process.boundary_dims()
    offsets = np.concatenate([[0], np.cumsum(dims)]).astype(int)
    n = int(offsets[-1])
    d = process.phase_dim
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
    M[offsets[b]:offsets[b + 1], offsets[b]:offsets[b + 1]] += \
        R @ to_dense(process.A2)
    norm = np.ones(n)
    norm[offsets[b]:offsets[b + 1]] = np.linalg.solve(np.eye(d) - R,
                                                      np.ones(d))
    col_norms = np.linalg.norm(M, axis=0)
    drop = int(np.argmax(col_norms))
    A = M.copy()
    A[:, drop] = norm
    dead = np.flatnonzero(col_norms == 0.0)
    for k in dead:
        if k != drop:
            A[k, k] = 1.0
    rhs = np.zeros(n)
    rhs[drop] = 1.0
    scales = np.linalg.norm(A, axis=0)
    scales[scales == 0.0] = 1.0
    try:
        x = np.linalg.solve((A / scales).T, rhs / scales)
        residual = float(np.max(np.abs(x @ M)))
    except np.linalg.LinAlgError:
        residual = np.inf
        x = None
    lstsq = (x is None or residual > 1e-6 * max(1.0, float(np.max(np.abs(M))))
             or bool(np.any(x < -1e-8)))
    if lstsq:
        full = np.hstack([M, norm[:, None]])
        for k in dead:
            full[k, k] = 1.0
        rhs_full = np.zeros(n + 1)
        rhs_full[-1] = 1.0
        x, *_ = np.linalg.lstsq(full.T, rhs_full, rcond=None)
    x = np.clip(x, 0.0, None)
    x = x / float(x @ norm)
    return [x[offsets[i]:offsets[i + 1]].copy() for i in range(b + 1)], lstsq
