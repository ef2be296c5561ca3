"""Batched (stacked) linear-algebra kernels for sweep-shaped workloads.

Every figure of the paper is a sweep: dozens of nearby grid points,
each solving the same family of QBDs with slightly perturbed blocks.
Small dense BLAS calls wrapped in Python control flow pay the
interpreter overhead once per matrix product, so the kernels here run
their recurrences on ``(npoints, m, m)`` stacks — one
``np.matmul``/``np.linalg.solve`` per step for the whole batch — with
per-slice convergence masks so points converge and drop out of the
batch individually, exactly where each would stop alone.

Design rules (all load-bearing for the bit identity of the stacked
solve stage, :func:`repro.pipeline.stages.solve_points`, with single
solves):

* **One implementation per recurrence.**  The ``R`` kernels are the
  library's only logarithmic reduction (:func:`batched_solve_G`),
  ``R``-from-``G`` recovery (:func:`batched_r_from_g`) and warm-start
  Newton refinement (:func:`batched_refine_R`).  The solve stage runs
  them on its job stacks; :func:`repro.qbd.rmatrix.solve_R` — the
  fallback chain's faulted, other-method and failed jobs — runs them
  on a stack of one, so the chain and the stage cannot drift apart.
  Each slice checks its own stopping rule and freezes at its own
  step, exactly where it would stop alone.  The drift test is the
  same: :func:`repro.qbd.stability.drift` runs :func:`batched_drift`
  on a stack of one.
* **Composition independence.**  Stacked ``matmul``/``solve``/``inv``
  dispatch to LAPACK/BLAS per slice, so a slice's result does not
  depend on which other points share the batch — a resumed sweep
  (smaller batch: only the pending points) reproduces the interrupted
  run's numbers.
* **Per-slice failure isolation.**  A slice that diverges, hits a
  singular system, or trips a guard is flagged in the returned ``ok``
  mask and frozen; the caller re-solves just that slice through the
  resilience chain.  A batched kernel never raises for a
  per-slice numerical failure.

Nothing here imports above the kernels layer; callers pass plain
``ndarray`` stacks (dense — sparse operands stay on the per-point
paths, where :func:`repro.kernels.select_backend` routes them).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "stack_blocks",
    "batched_gth",
    "batched_drift",
    "batched_solve_G",
    "batched_r_from_g",
    "batched_refine_R",
    "batched_solve_R",
]

#: Memory cap (float64 elements) for the materialized Kronecker
#: linearizations of the batched Newton refinement; bigger batches are
#: processed in sub-chunks of at most this many elements (at least one
#: slice each).
_KRON_ELEMENT_BUDGET = 40_000


def stack_blocks(mats) -> np.ndarray:
    """Stack same-shaped matrices into a C-contiguous ``(n, m, m)`` array."""
    return np.ascontiguousarray(
        np.stack([np.asarray(m, dtype=np.float64) for m in mats]))


# ---------------------------------------------------------------------------
# Stationary vectors / drift


def batched_gth(T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GTH stationary vectors of a stack of rate-like matrices.

    The Grassmann–Taksar–Heyman elimination: only additions and
    multiplications of non-negative quantities, with the diagonal
    never read (each pivot is the sum of its row's remaining rates),
    so stiff generators suffer no catastrophic cancellation.  The
    elimination loop runs over the small phase dimension while every
    update is vectorized across the batch.  Returns ``(pi, ok)`` where
    ``ok[i]`` is ``False`` for slices whose elimination detected a
    reducible structure.  The one-chain reference is
    ``solve_stationary_gth`` in ``tests/markov/ctmc_oracle.py``; the
    two agree to a few ulps.
    """
    T = np.asarray(T, dtype=np.float64)
    n, m, _ = T.shape
    ok = np.ones(n, dtype=bool)
    if m == 1:
        return np.ones((n, 1)), ok
    A = T.copy()
    for k in range(m - 1, 0, -1):
        scale = A[:, k, :k].sum(axis=1)
        good = scale > 0.0
        ok &= good
        s = np.where(good, scale, 1.0)
        A[:, :k, k] /= s[:, None]
        A[:, :k, :k] += A[:, :k, k, None] * A[:, k, None, :k]
    pi = np.zeros((n, m))
    pi[:, 0] = 1.0
    for k in range(1, m):
        pi[:, k] = np.einsum("ni,ni->n", pi[:, :k], A[:, :k, k])
    total = pi.sum(axis=1)
    good = np.isfinite(total) & (total > 0)
    ok &= good
    return pi / np.where(good, total, 1.0)[:, None], ok


def batched_drift(A0: np.ndarray, A1: np.ndarray, A2: np.ndarray,
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Theorem 4.4 drift test across a stack of repeating blocks.

    Returns ``(up, down, phase_stationary, ok)``; ``ok=False`` marks a
    reducible phase process (:func:`repro.qbd.stability.drift` raises
    ``ReducibleChainError`` for it).
    """
    y, ok = batched_gth(A0 + A1 + A2)
    up = np.einsum("ni,ni->n", y, A0.sum(axis=2))
    down = np.einsum("ni,ni->n", y, A2.sum(axis=2))
    return up, down, y, ok


# ---------------------------------------------------------------------------
# Logarithmic reduction for G / recovery of R


def _batched_uniformize(A0, A1, A2):
    """Per-slice uniformization; returns ``(D0, D1, D2, ok)``."""
    diag = np.diagonal(A1, axis1=1, axis2=2)
    rate = -diag.min(axis=1)
    ok = rate > 0.0
    r = np.where(ok, rate, 1.0)[:, None, None]
    I = np.eye(A1.shape[1])
    return A0 / r, A1 / r + I, A2 / r, ok


def _masked_solve(lhs: np.ndarray, rhs: np.ndarray,
                  ok: np.ndarray) -> np.ndarray:
    """``np.linalg.solve`` on a stack with per-slice failure isolation.

    Updates ``ok`` in place for slices whose system is singular and
    returns the solutions (failed slices hold garbage but are masked).
    """
    try:
        return np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:
        out = np.empty_like(rhs)
        for i in range(lhs.shape[0]):
            try:
                out[i] = np.linalg.solve(lhs[i], rhs[i])
            except np.linalg.LinAlgError:
                out[i] = 0.0
                ok[i] = False
        return out


def batched_solve_G(A0: np.ndarray, A1: np.ndarray, A2: np.ndarray, *,
                    tol: float = 1e-12, max_iter: int = 64,
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lockstep logarithmic reduction for ``G`` across a block stack.

    ``G``, the minimal non-negative solution of
    ``A0 G^2 + A1 G + A2 = 0``, by Latouche–Ramaswami logarithmic
    reduction on the uniformized QBD.  Convergence is quadratic, so
    ``max_iter`` counts *doubling* steps (64 covers any practical
    case: the residual after ``k`` steps is of order ``xi^(2^k)``).  A
    slice stops once its stochasticity defect ``max|1 - G e|`` or its
    remaining correction ``max|T|`` drops below ``tol`` (``G`` of a
    recurrent QBD is stochastic) and freezes at that step.  Returns
    ``(G, iterations, ok)`` with per-slice doubling-step counts;
    ``ok=False`` marks slices that failed to uniformize, went
    non-finite, hit a singular ``I - U``, or exhausted ``max_iter``.
    """
    A0 = np.asarray(A0, dtype=np.float64)
    A1 = np.asarray(A1, dtype=np.float64)
    A2 = np.asarray(A2, dtype=np.float64)
    n, d, _ = A1.shape
    D0, D1, D2, ok = _batched_uniformize(A0, A1, A2)
    I = np.eye(d)
    inv_ok = ok.copy()
    inv = _masked_solve(I - D1, np.broadcast_to(I, D1.shape).copy(), inv_ok)
    ok &= inv_ok
    H = inv @ D0
    L = inv @ D2
    G = L.copy()
    T = H.copy()
    iters = np.zeros(n, dtype=np.int64)
    active = ok.copy()
    for it in range(1, max_iter + 1):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        Ha, La, Ta = H[idx], L[idx], T[idx]
        U = Ha @ La + La @ Ha
        sub_ok = np.ones(idx.size, dtype=bool)
        Hn = _masked_solve(I - U, Ha @ Ha, sub_ok)
        Ln = _masked_solve(I - U, La @ La, sub_ok)
        Gn = G[idx] + Ta @ Ln
        Tn = Ta @ Hn
        defect = np.abs(1.0 - Gn.sum(axis=2)).max(axis=1)
        correction = np.abs(Tn).max(axis=(1, 2))
        finite = np.isfinite(defect) & np.isfinite(correction) & sub_ok
        H[idx], L[idx], G[idx], T[idx] = Hn, Ln, Gn, Tn
        iters[idx] = it
        converged = (correction < tol) | (defect < tol)
        ok[idx[~finite]] = False
        active[idx] = finite & ~converged
    ok &= ~active  # slices still iterating at max_iter did not converge
    return np.clip(G, 0.0, None), iters, ok


def batched_r_from_g(A0: np.ndarray, A1: np.ndarray, G: np.ndarray,
                     ok: np.ndarray | None = None) -> np.ndarray:
    """Recover ``R`` from ``G`` per slice: ``R = A0 (-(A1 + A0 G))^{-1}``.

    ``U = A1 + A0 G`` is the generator of the process restricted to a
    level before first passage down; its negated inverse collects
    expected sojourn times, and ``R`` is the expected number of visits
    to level ``n+1`` states per unit time in level ``n`` states.
    Slices masked out by ``ok``, and slices whose ``U`` is singular,
    come back non-finite; callers re-check finiteness.
    """
    d = A1.shape[1]
    U = A1 + A0 @ G
    mask = np.ones(A0.shape[0], dtype=bool) if ok is None else ok.copy()
    lhs = np.where(mask[:, None, None], -U, np.eye(d))
    eye = np.broadcast_to(np.eye(d), lhs.shape).copy()
    inv = _masked_solve(lhs, eye, mask)
    inv[~mask] = np.nan  # surface singular slices as non-finite R
    return A0 @ inv


# ---------------------------------------------------------------------------
# Newton refinement of warm-started R iterates


def _batched_kron_operator(R, B, A2t):
    """Stack of ``kron(R, A2^T) + kron(I, B^T)`` linearizations.

    With row-major ``vec``, ``vec(P H Q) = kron(P, Q^T) vec(H)``, so
    this is the Newton map ``H -> H B + R H A2`` for ``B = A1 + R A2``.
    ``kron(P, Q)[x1*d + x2, x3*d + x4] = P[x1, x3] Q[x2, x4]``, so the
    broadcast places the left factor on the outer row/column axes and
    the right factor on the inner ones.  ``kron(I, B^T)`` only fills
    the ``d`` diagonal blocks, so ``B^T`` is added there instead of
    building it; the sum has the bits of the textbook expression
    (``tests/qbd/test_rmatrix.py`` pins the two).
    """
    n, d, _ = R.shape
    M = R[:, :, None, :, None] * A2t[:, None, :, None, :]
    diag = np.arange(d)
    M[:, diag, :, diag, :] += np.transpose(B, (0, 2, 1))
    return M.reshape(n, d * d, d * d)


def batched_refine_R(A0: np.ndarray, A1: np.ndarray, A2: np.ndarray,
                     R0: np.ndarray, *, tol: float = 1e-12,
                     max_steps: int = 8,
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lockstep Newton refinement of warm-start ``R`` iterates.

    Newton's method on ``F(R) = A0 + R A1 + R^2 A2``: the Fréchet
    derivative at ``R`` maps ``H`` to ``H (A1 + R A2) + R H A2``, so
    each step solves that generalized Sylvester equation for the
    correction ``H`` through its dense ``d^2 x d^2`` Kronecker
    linearization (:func:`repro.qbd.rmatrix.warm_seed` keeps large
    ``d`` away).  Quadratically convergent from a good seed.

    A slice is accepted once its quadratic residual drops below
    ``tol * max(1, max|A1|)`` within ``max_steps``; it fails when its
    residual stops shrinking (the seed was too far off) or goes
    non-finite, when its step's system is singular, and when the
    result is not the minimal solvent (finite, essentially
    non-negative, ``sp(R) < 1``: Newton from a far-off seed can land
    on another solvent).  Returns ``(R, steps, ok)`` with per-slice
    Newton step counts; a slice with ``ok=False`` simply fell back —
    the caller runs its cold solve — never an error.  This is an
    accelerator, not a method: it cannot solve from scratch.
    """
    A0 = np.asarray(A0, dtype=np.float64)
    A1 = np.asarray(A1, dtype=np.float64)
    A2 = np.asarray(A2, dtype=np.float64)
    R = np.array(R0, dtype=np.float64, copy=True)
    n, d, _ = A1.shape
    A2t = np.transpose(A2, (0, 2, 1))
    scale = np.maximum(1.0, np.abs(A1).max(axis=(1, 2)))
    target = np.maximum(tol, 1e-14) * scale
    ok = np.ones(n, dtype=bool)
    done = np.zeros(n, dtype=bool)
    steps = np.zeros(n, dtype=np.int64)
    prev_resid = np.full(n, np.inf)
    # Cap the memory of the materialized d^2 x d^2 operators.
    chunk = max(1, int(_KRON_ELEMENT_BUDGET // max(1, d ** 4)))
    for _ in range(max_steps):
        idx = np.flatnonzero(ok & ~done)
        if idx.size == 0:
            break
        Ra = R[idx]
        F = A0[idx] + Ra @ A1[idx] + Ra @ Ra @ A2[idx]
        resid = np.abs(F).max(axis=(1, 2))
        finite = np.isfinite(resid)
        ok[idx[~finite]] = False
        hit = finite & (resid <= target[idx])
        done[idx[hit]] = True
        diverged = finite & ~hit & (resid >= prev_resid[idx])
        ok[idx[diverged]] = False
        step = np.flatnonzero(finite & ~hit & ~diverged)
        if step.size == 0:
            continue
        sel = idx[step]
        prev_resid[sel] = resid[step]
        steps[sel] += 1
        for lo in range(0, sel.size, chunk):
            sub = sel[lo:lo + chunk]
            Rs = R[sub]
            M = _batched_kron_operator(Rs, A1[sub] + Rs @ A2[sub],
                                       A2t[sub])
            rhs = -F[step][lo:lo + chunk].reshape(sub.size, d * d)
            sub_ok = np.ones(sub.size, dtype=bool)
            h = _masked_solve(M, rhs[..., None], sub_ok)[..., 0]
            ok[sub[~sub_ok]] = False
            good = sub[sub_ok]
            R[good] = R[good] + h[sub_ok].reshape(-1, d, d)
    # Slices that ran out of steps: accept only if the final residual
    # already meets the target.
    tail = np.flatnonzero(ok & ~done)
    if tail.size:
        Ra = R[tail]
        F = A0[tail] + Ra @ A1[tail] + Ra @ Ra @ A2[tail]
        resid = np.abs(F).max(axis=(1, 2))
        bad = ~(np.isfinite(resid) & (resid <= target[tail]))
        ok[tail[bad]] = False
    # Solvent checks: finite, essentially nonnegative, sp(R) < 1.
    live = np.flatnonzero(ok)
    if live.size:
        Ra = R[live]
        finite = np.isfinite(Ra).all(axis=(1, 2))
        rmax = np.maximum(1.0, np.abs(Ra).max(axis=(1, 2)))
        nonneg = Ra.min(axis=(1, 2)) >= -1e-8 * rmax
        ok[live[~(finite & nonneg)]] = False
        live = np.flatnonzero(ok)
        if live.size:
            sp = np.abs(np.linalg.eigvals(R[live])).max(axis=1)
            ok[live[sp >= 1.0]] = False
    return R, steps, ok


def batched_solve_R(A0: np.ndarray, A1: np.ndarray, A2: np.ndarray, *,
                    R0: np.ndarray | None = None,
                    seeded: np.ndarray | None = None,
                    tol: float = 1e-12, max_iter: int = 64,
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                               np.ndarray]:
    """Warm-refine + cold-logreduction ``R`` solve across a stack.

    Slices flagged in ``seeded`` first try the batched Newton
    refinement from ``R0``; failures (and unseeded slices) fall through
    to the lockstep logarithmic reduction and recover ``R`` from ``G``.
    This is the ``"logreduction"`` attempt of the library: the solve
    stage runs it on its job stacks and
    :func:`repro.qbd.rmatrix.solve_R` on a stack of one.

    Returns ``(R, refined, iterations, ok)``: ``refined`` marks slices
    served by the warm refinement, ``iterations`` counts their Newton
    steps (doubling steps for the cold slices), and ``ok=False`` marks
    slices that failed (the stage re-solves each through the
    resilience chain; a single solve raises).
    """
    n = A1.shape[0]
    refined = np.zeros(n, dtype=bool)
    iters = np.zeros(n, dtype=np.int64)
    R = np.zeros_like(A1)
    if R0 is not None and seeded is not None and seeded.any():
        idx = np.flatnonzero(seeded)
        Rw, steps, warm_ok = batched_refine_R(A0[idx], A1[idx], A2[idx],
                                              R0[idx], tol=tol)
        hit = idx[warm_ok]
        R[hit] = Rw[warm_ok]
        iters[hit] = steps[warm_ok]
        refined[hit] = True
    cold = np.flatnonzero(~refined)
    ok = refined.copy()
    if cold.size:
        G, doublings, g_ok = batched_solve_G(A0[cold], A1[cold], A2[cold],
                                             tol=tol, max_iter=max_iter)
        Rc = batched_r_from_g(A0[cold], A1[cold], G, g_ok)
        g_ok &= np.isfinite(Rc).all(axis=(1, 2))
        R[cold[g_ok]] = Rc[g_ok]
        iters[cold] = doublings
        ok[cold[g_ok]] = True
    return R, refined, iters, ok
