"""Solvers for the matrix-quadratic equations of a QBD.

The rate matrix ``R`` is the minimal non-negative solution of

    R^2 A2 + R A1 + A0 = 0                      (eq. 23 of the paper)

and the companion matrix ``G`` (first-passage probabilities one level
down) is the minimal non-negative solution of

    A0 G^2 + A1 G + A2 = 0.

Four algorithms are provided:

* ``"substitution"`` — natural successive substitution
  ``R <- -(A0 + R^2 A2) A1^{-1}``, the classical linearly-convergent
  iteration (Neuts 1981);
* ``"logreduction"`` — Latouche–Ramaswami logarithmic reduction on the
  uniformized (discrete-time) QBD, quadratically convergent; ``R`` is
  recovered from ``G`` via ``R = A0 (-(A1 + A0 G))^{-1}``;
* ``"cr"`` — Bini–Meini cyclic reduction on the uniformized QBD, the
  other quadratically convergent reduction (a genuinely different
  recurrence from logreduction, so the two rarely fail together);
* ``"spectral"`` — direct invariant-subspace solve: the eigenvalues of
  ``G`` are the roots of ``det(z^2 A0 + z A1 + A2)`` in the closed
  unit disk, found via a companion linearization.  Non-iterative, so
  it is immune to slow-convergence failures entirely (at the price of
  requiring ``G`` to be diagonalizable); it serves as the last rung of
  the resilience fallback chain.

The logarithmic reduction, the recovery of ``R`` from ``G`` and the
warm-start Newton refinement have one implementation each, the stacked
kernels of :mod:`repro.kernels.batched`: the solve stage runs them on
its job stacks and :func:`solve_R` runs them on a stack of one, so a
single solve and a stacked slice follow the same code.  Cyclic
reduction, substitution and the spectral solve live here; they serve
the fallback chain only.

All but ``"spectral"`` converge only for *positive recurrent* QBDs
(``sp(R) < 1``); call :func:`repro.qbd.stability.is_stable` first, or
rely on the iteration budget raising
:class:`~repro.errors.ConvergenceError`.  For multi-method solving
with automatic fallback, retries, and budgets, use
:func:`repro.resilience.fallback.resilient_solve_R`.

Warm starts
-----------
:func:`solve_R` accepts an optional initial iterate ``R0``.  For
``"substitution"`` it replaces the cold ``R = A0 (-A1)^{-1}`` start;
for every other method a few steps of Newton's method on the quadratic
residual (each step solves the generalized Sylvester equation
``H (A1 + R A2) + R H A2 = -F(R)`` via its dense ``d^2 x d^2``
Kronecker linearization,
:func:`~repro.kernels.batched.batched_refine_R`) are attempted first,
falling back silently to the cold algorithm if the refinement does not
converge.  Near a fixed point of Section 4.3 the vacation blocks
change by a shrinking perturbation per iteration, so the previous
``R`` is an excellent seed and one or two Newton steps replace a full
reduction.  :func:`warm_seed` decides whether a seed is used at all:
past the backend selector's dense side for the ``d^2 x d^2`` operator
the solve starts cold, here and in the stacked solve stage alike.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy import linalg as _sla

from repro.errors import ConvergenceError, ValidationError
from repro.kernels import select_backend
from repro.kernels.batched import (
    batched_r_from_g,
    batched_refine_R,
    batched_solve_R,
)
from repro.obs import metrics
from repro.resilience.faults import maybe_corrupt, maybe_fault

__all__ = ["solve_R", "warm_seed", "METHODS", "RSolveDiagnostics"]

METHODS = ("logreduction", "cr", "substitution", "spectral")


@dataclass(frozen=True)
class RSolveDiagnostics:
    """Diagnostics of one *successful* ``R`` solve.

    Historically only :class:`~repro.errors.ConvergenceError` carried
    iteration counts and residuals — a solve that worked discarded
    them.  ``solve_R(..., return_info=True)`` now returns them on the
    success path too (and every solve feeds them to the
    :mod:`repro.obs.metrics` registry when collection is on).

    Attributes
    ----------
    method:
        The algorithm that produced ``R``.
    iterations:
        Iterations the winning path used: substitution steps, doubling
        steps for the reduction methods, Newton steps when a warm
        start was refined, ``0`` for the non-iterative spectral solve.
    residual:
        Quadratic residual ``max|R^2 A2 + R A1 + A0|`` of the returned
        ``R``.
    refined:
        ``True`` when the result came from the warm-start Newton
        refinement rather than the cold algorithm.
    """

    method: str
    iterations: int
    residual: float
    refined: bool = False


def _quad_residual(R, A0, A1, A2) -> float:
    return float(np.max(np.abs(R @ R @ A2 + R @ A1 + A0)))


def warm_seed(R0, d: int, backend: str | None) -> np.ndarray | None:
    """The warm-start iterate of a ``d``-phase ``R`` solve, or ``None``.

    ``R0`` (as float64) when it is a finite ``d x d`` matrix whose
    Newton operator, ``d^2 x d^2``, is on
    :func:`~repro.kernels.select_backend`'s dense side; ``None`` — a
    cold start — otherwise (a shape mismatch means the vacation order
    changed between iterations).  :func:`solve_R` and the stacked solve
    stage (:mod:`repro.pipeline.stages`) both seed through this rule,
    so a job starts warm or cold alike on either path.
    """
    if R0 is None:
        return None
    R0 = np.asarray(R0, dtype=np.float64)
    if R0.shape != (d, d) or not np.all(np.isfinite(R0)):
        return None
    if select_backend(backend, d * d, site="rsolve") != "dense":
        return None
    return R0


def _check_deadline(deadline: float | None, what: str, it: int,
                    residual: float) -> None:
    """Abort an iteration that overran its wall-clock deadline.

    The check runs once per iteration, so a single runaway attempt —
    large blocks, linear convergence toward an unstable fixed point —
    can overshoot the budget by at most one iteration, not unboundedly.
    """
    if deadline is not None and time.monotonic() >= deadline:
        raise ConvergenceError(
            f"{what} hit its wall-clock deadline mid-solve "
            f"(after {it} iteration(s))", iterations=it, residual=residual,
        )


def solve_R(A0: np.ndarray, A1: np.ndarray, A2: np.ndarray, *,
            method: str = "logreduction", tol: float = 1e-12,
            max_iter: int = 100_000,
            R0: np.ndarray | None = None,
            backend: str | None = None,
            return_info: bool = False,
            deadline: float | None = None):
    """Minimal non-negative solution of ``R^2 A2 + R A1 + A0 = 0``.

    Parameters
    ----------
    A0, A1, A2:
        Repeating blocks of a continuous-time QBD (``A1`` carries the
        negative diagonal).
    method:
        One of :data:`METHODS` (default ``"logreduction"``).
    tol:
        Convergence threshold on the iteration's residual measure.
    max_iter:
        Iteration budget; exceeded budgets raise
        :class:`~repro.errors.ConvergenceError` (the usual cause is an
        unstable QBD, for which the minimal solution has
        ``sp(R) >= 1`` and substitution creeps toward it forever).
    R0:
        Optional warm-start iterate (e.g. the previous fixed-point
        iteration's ``R``).  ``"substitution"`` iterates from it
        directly; the other methods first try a short Newton
        refinement (:func:`~repro.kernels.batched.batched_refine_R`)
        and fall back to their cold algorithm when it fails.
        :func:`warm_seed` silently discards a seed of the wrong shape,
        a non-finite one, and one whose Newton operator is past the
        backend's dense side.
    backend:
        ``"auto"`` / ``"dense"`` / ``"sparse"`` mode; it only decides
        whether ``R0`` is used (:func:`warm_seed`).  Every algorithm
        is dense ``d x d`` BLAS.
    return_info:
        When ``True``, return ``(R, RSolveDiagnostics)`` instead of
        ``R`` alone — iteration count and final residual survive the
        success path.
    deadline:
        Optional :func:`time.monotonic` timestamp; substitution and
        cyclic reduction check it once per iteration and raise
        :class:`~repro.errors.ConvergenceError` when it passes, so a
        wall-clock budget binds *inside* such an attempt, not just
        between attempts (:func:`repro.resilience.fallback.resilient_solve_R`
        threads its wall-clock ``budget`` through here).  A
        logarithmic reduction does not read the clock: it is bounded
        by ``max_iter`` doubling steps (64 in the fallback chain).

    ``"logreduction"`` is :func:`~repro.kernels.batched.batched_solve_R`
    on a stack of one, the stacked solve stage's own attempt: a singular
    ``I - U`` or a non-finite iterate fails it with
    :class:`~repro.errors.ConvergenceError` (carrying its doubling
    count) rather than :class:`numpy.linalg.LinAlgError`.  Blocks whose
    ``A1`` has no negative diagonal raise
    :class:`~repro.errors.ValidationError` for both reductions.
    """
    A0 = np.asarray(A0, dtype=np.float64)
    A1 = np.asarray(A1, dtype=np.float64)
    A2 = np.asarray(A2, dtype=np.float64)
    if method not in METHODS:
        raise ValidationError(
            f"unknown R-matrix method {method!r}; use one of {METHODS}")
    maybe_fault("rmatrix.solve", key=method)
    R0 = warm_seed(R0, A1.shape[0], backend)
    refined = False
    if method == "substitution":
        R, iterations = _solve_r_substitution(A0, A1, A2, tol=tol,
                                              max_iter=max_iter, R0=R0,
                                              deadline=deadline)
    else:
        # The stacked kernels, on a stack of one.
        one = tuple(np.ascontiguousarray(A)[None] for A in (A0, A1, A2))
        seed = None if R0 is None else np.ascontiguousarray(R0)[None]
        if method == "logreduction":
            _uniformization_rate(A1)
            R, warm, steps, ok = batched_solve_R(
                *one, R0=seed, seeded=np.array([seed is not None]),
                tol=tol, max_iter=max_iter)
            if not ok[0]:
                raise ConvergenceError(
                    "logarithmic reduction did not converge "
                    "(unstable QBD?)", iterations=int(steps[0]))
            R, refined, iterations = R[0], bool(warm[0]), int(steps[0])
        else:
            R = None
            if seed is not None:
                Rw, steps, ok = batched_refine_R(*one, seed, tol=tol)
                if ok[0]:
                    R, iterations, refined = Rw[0], int(steps[0]), True
            if R is None:
                if method == "cr":
                    G, iterations = _solve_g_cr(A0, A1, A2, tol=tol,
                                                max_iter=max_iter,
                                                deadline=deadline)
                else:  # spectral: non-iterative
                    G = _solve_g_spectral(A0, A1, A2, tol=tol)
                    iterations = 0
                R = batched_r_from_g(one[0], one[1], G[None])[0]
    info = None
    if return_info or metrics.enabled():
        residual = _quad_residual(R, A0, A1, A2)
        info = RSolveDiagnostics(method=method, iterations=int(iterations),
                                 residual=residual, refined=refined)
        metrics.inc("rsolve.solves", method=method, refined=refined)
        metrics.observe("rsolve.iterations", iterations, method=method)
        metrics.observe("rsolve.residual", residual, method=method)
    R = maybe_corrupt("rmatrix.result", R, key=method)
    if return_info:
        return R, info
    return R


def _solve_r_substitution(A0, A1, A2, *, tol: float, max_iter: int,
                          R0: np.ndarray | None = None,
                          deadline: float | None = None,
                          ) -> tuple[np.ndarray, int]:
    neg_A1_inv = np.linalg.inv(-A1)
    if R0 is None:
        R = A0 @ neg_A1_inv  # first substitution step from R=0
    else:
        R = R0
    delta = float("inf")
    for it in range(1, max_iter + 1):
        _check_deadline(deadline, "successive substitution", it - 1, delta)
        R_next = (A0 + R @ R @ A2) @ neg_A1_inv
        delta = float(np.max(np.abs(R_next - R)))
        R = R_next
        if delta < tol:
            return R, it
    raise ConvergenceError(
        "successive substitution for R did not converge "
        "(the QBD may be unstable)", iterations=max_iter, residual=delta,
    )


def _uniformization_rate(A1) -> float:
    """``max(-diag A1)``, the rate that uniformizes the repeating part."""
    rate = float(np.max(-np.diag(A1)))
    if rate <= 0:
        raise ValidationError("A1 has no negative diagonal; not a CTMC QBD")
    return rate


def _solve_g_cr(A0, A1, A2, *, tol: float, max_iter: int = 64,
                deadline: float | None = None) -> tuple[np.ndarray, int]:
    """Bini–Meini cyclic reduction for ``G`` on the uniformized QBD.

    With discrete blocks ``(up, local, down) = (D0, D1, D2)`` the
    recurrences square the path length each step; the "hat" sequence
    converges quadratically to ``U = D1 + D0 G`` (local transitions
    taboo of going down), from which
    ``G = (I - U)^{-1} D2``.
    """
    rate = _uniformization_rate(A1)
    I = np.eye(A1.shape[0])
    # A discrete QBD with the same G (D1 carries the lazy self-loop).
    D0, D1, D2 = A0 / rate, A1 / rate + I, A2 / rate
    down, local, up = D2.copy(), D1.copy(), D0.copy()
    local_hat = D1.copy()
    correction = float("inf")
    for it in range(1, max_iter + 1):
        _check_deadline(deadline, "cyclic reduction", it - 1, correction)
        S = np.linalg.inv(I - local)
        downS = down @ S
        upS = up @ S
        local_hat = local_hat + upS @ down
        local = local + downS @ up + upS @ down
        down = downS @ down
        up = upS @ up
        # ``up`` shrinks to zero quadratically for a positive recurrent
        # QBD; it bounds the remaining correction to ``local_hat``.
        correction = float(np.max(np.abs(up)))
        if correction < tol:
            break
    else:
        raise ConvergenceError(
            "cyclic reduction did not converge (unstable QBD?)",
            iterations=max_iter, residual=correction,
        )
    G = np.linalg.solve(I - local_hat, D2)
    return np.clip(G, 0.0, None), it


def _solve_g_spectral(A0, A1, A2, *, tol: float) -> np.ndarray:
    """Invariant-subspace solve for ``G``.

    Eigenpairs ``G v = z v`` satisfy the quadratic eigenvalue problem
    ``(z^2 A0 + z A1 + A2) v = 0``; the minimal non-negative solvent
    collects the ``d`` roots inside the closed unit disk.  Solved via
    the companion linearization

        [ 0    I  ] [ v  ]       [ I  0  ] [ v  ]
        [ -A2  -A1] [ zv ]  =  z [ 0  A0 ] [ zv ] .

    Raises :class:`~repro.errors.ConvergenceError` when the selected
    eigenvector basis is numerically singular (defective ``G``) or the
    reconstructed solvent fails the quadratic-residual check.
    """
    A0 = np.asarray(A0, dtype=np.float64)
    A1 = np.asarray(A1, dtype=np.float64)
    A2 = np.asarray(A2, dtype=np.float64)
    d = A1.shape[0]
    I = np.eye(d)
    Z = np.zeros((d, d))
    lhs = np.block([[Z, I], [-A2, -A1]])
    rhs = np.block([[I, Z], [Z, A0]])
    vals, vecs = _sla.eig(lhs, rhs)
    moduli = np.abs(vals)
    moduli[~np.isfinite(moduli)] = np.inf  # infinite eigenvalues (A0 singular)
    order = np.argsort(moduli)
    chosen = order[:d]
    if moduli[chosen[-1]] > 1.0 + 1e-8:
        raise ConvergenceError(
            "spectral solve found fewer than d roots in the unit disk "
            "(unstable QBD?)", residual=float(moduli[chosen[-1]] - 1.0))
    V = vecs[:d, chosen]
    z = vals[chosen]
    try:
        G = np.real(V @ np.diag(z) @ np.linalg.inv(V))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"spectral solve: eigenvector basis is singular ({exc}); "
            "G may be defective") from None
    residual = float(np.max(np.abs(A0 @ G @ G + A1 @ G + A2)))
    scale = max(1.0, float(np.max(np.abs(A1))))
    if not np.isfinite(residual) or residual > scale * max(tol * 1e4, 1e-8):
        raise ConvergenceError(
            "spectral solve residual too large (ill-conditioned "
            "eigenbasis?)", residual=residual)
    return np.clip(G, 0.0, None)
