"""Multi-method ``R``-matrix solving: fallback chain, retries, budget.

One R-matrix solve that raises :class:`~repro.errors.ConvergenceError`
must not abort a whole fixed-point run (and with it a sweep point).
:func:`resilient_solve_R` walks a *chain* of solver methods — the
configured method first, then the remaining algorithms of
:data:`repro.qbd.rmatrix.METHODS` (:func:`default_chain`) — retrying
each with adjusted tolerances and mild regularization, validating
every result, and recording a structured :class:`AttemptRecord` per
attempt so the caller can see which method succeeded and why the
others failed.  The solve's one setting is its wall-clock ``budget``;
the retry schedule, the acceptance threshold and the iteration budget
are the module constants below.

Retry semantics
---------------
The two failure modes call for opposite tolerance adjustments:

* the iteration *ran out of budget* (``ConvergenceError``) — retry
  with a **relaxed** tolerance (:data:`TOL_RELAX`) and a mild diagonal
  regularization (:data:`REGULARIZATION`, a tiny uniform killing rate
  on ``A1``), which rescues nearly-converged and nearly-singular
  iterations;
* the iteration *converged to a bad answer* (non-finite entries,
  quadratic residual too large, ``sp(R) >= 1``) — retry with a
  **tightened** tolerance (:data:`TOL_TIGHTEN`), which rescues
  premature stopping.

Every candidate ``R`` — including regularized ones — is accepted only
by :func:`accept_R` on the *unregularized* blocks, so fallback never
trades a loud failure for a silently wrong answer.  The stacked solve
stage (:func:`repro.pipeline.stages.solve_points`) accepts its slices
with the same function.

Budgets
-------
Every solve has an iteration budget summed over all attempts
(:data:`MAX_TOTAL_ITERATIONS`) and an optional wall-clock budget (the
scenario's ``solve_budget``; a slice of the stacked solve stage is
bounded by its step counts instead and ignores it).  Exhausting either
raises :class:`~repro.errors.SolverBudgetExceededError` with the
attempt history attached as ``exc.report``.  The wall-clock budget is
enforced between attempts and *inside* the linearly or slowly
converging ones: the deadline is threaded into the substitution and
cyclic-reduction loops, so a single runaway attempt (large blocks
creeping toward an unstable fixed point) is cut off mid-iteration
instead of running to its full iteration cap first.  A logarithmic
reduction attempt — the stacked solve stage's kernel on a stack of
one — does not read the clock; it is bounded at 64 doubling steps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import (
    ConvergenceError,
    SolverBudgetExceededError,
    ValidationError,
)
from repro.obs import metrics

__all__ = ["AttemptRecord", "SolveReport", "accept_R", "default_chain",
           "resilient_solve_R"]

#: Attempts per method (the initial try counts as one).
ATTEMPTS_PER_METHOD = 2
#: Tolerance factor for a retry after an *invalid result* (tighten).
TOL_TIGHTEN = 1e-2
#: Tolerance factor for a retry after a *convergence failure* (relax).
TOL_RELAX = 1e2
#: Uniform killing rate, relative to ``max |diag A1|``, added to the
#: diagonal of ``A1`` on the first convergence-failure retry (each
#: further one multiplies it by 100).
REGULARIZATION = 1e-10
#: A candidate ``R`` is accepted only if
#: ``max|R^2 A2 + R A1 + A0| <= ACCEPTANCE_RESIDUAL * max(1, max|A1|)``.
ACCEPTANCE_RESIDUAL = 1e-8
#: Iteration budget summed across every attempt of one solve.
MAX_TOTAL_ITERATIONS = 400_000


@dataclass(frozen=True)
class AttemptRecord:
    """One solve attempt: what was tried and how it ended.

    ``outcome`` is ``"ok"``, ``"error"`` (the solver raised), or
    ``"invalid"`` (the solver returned, but the result failed
    validation — ``error`` then holds the reason).
    """

    method: str
    attempt: int
    tol: float
    regularization: float
    outcome: str
    error: str | None
    iterations: int | None
    residual: float | None
    elapsed: float
    #: Backend mode the attempt ran with (``None`` is ``"auto"``).
    backend: str | None = None

    def describe(self) -> str:
        detail = "" if self.error is None else f": {self.error}"
        bk = f" backend={self.backend}" if self.backend else ""
        return (f"{self.method}[#{self.attempt} tol={self.tol:.3g}"
                f"{f' reg={self.regularization:.1g}' if self.regularization else ''}"
                f"{bk}]"
                f" -> {self.outcome}{detail}")


@dataclass
class SolveReport:
    """Structured record of a resilient solve.

    ``method`` is the winning method (``None`` if every attempt
    failed); ``attempts`` lists every try in order.
    """

    attempts: list[AttemptRecord] = field(default_factory=list)
    method: str | None = None

    @property
    def succeeded(self) -> bool:
        return self.method is not None

    @property
    def fallbacks(self) -> int:
        """Failed attempts before the winning (or final) one."""
        n = len(self.attempts)
        return n - 1 if self.succeeded else n

    @property
    def total_elapsed(self) -> float:
        return sum(a.elapsed for a in self.attempts)

    def describe(self) -> str:
        head = (f"resilient solve: method={self.method or 'FAILED'} "
                f"({len(self.attempts)} attempt(s), "
                f"{self.total_elapsed:.3g}s)")
        return "\n".join([head] + ["  " + a.describe() for a in self.attempts])


def default_chain(method: str = "logreduction") -> tuple[str, ...]:
    """The fallback chain: ``method`` first, then the other algorithms
    in :data:`~repro.qbd.rmatrix.METHODS` order."""
    from repro.qbd.rmatrix import METHODS
    if method not in METHODS:
        raise ValidationError(
            f"unknown R-matrix method {method!r}; use one of {METHODS}")
    return (method,) + tuple(m for m in METHODS if m != method)


def accept_R(R: np.ndarray, A0: np.ndarray, A1: np.ndarray, A2: np.ndarray,
             *, tested: np.ndarray | None = None,
             ) -> tuple[list[str | None], np.ndarray]:
    """The acceptance test of candidate ``R`` solutions, on a stack.

    ``R`` and the blocks are ``(n, d, d)`` stacks.  Slice ``i`` passes
    when ``R[i]`` is finite, its quadratic residual
    ``max|R^2 A2 + R A1 + A0|`` is at most
    ``ACCEPTANCE_RESIDUAL * max(1, max|A1|)``, and ``sp(R[i]) < 1``
    (the minimal solution of a positive recurrent QBD).  Slices marked
    in ``tested`` skip the spectral test: the Newton refinement
    already ran it on the same matrix.

    Returns ``(reasons, residual)``: ``reasons[i]`` is ``None`` for a
    slice that passes and says why it failed otherwise;
    ``residual[i]`` is its quadratic residual.
    """
    finite = np.isfinite(R).all(axis=(1, 2))
    residual = np.abs(R @ R @ A2 + R @ A1 + A0).max(axis=(1, 2))
    limit = ACCEPTANCE_RESIDUAL * np.maximum(1.0, np.abs(A1).max(axis=(1, 2)))
    reasons: list[str | None] = [
        "non-finite entries in R" if not f
        else None if r <= lim
        else f"quadratic residual {r:.3g} above threshold"
        for f, r, lim in zip(finite, residual, limit)]
    spectral = [i for i, why in enumerate(reasons)
                if why is None and not (tested is not None and tested[i])]
    if spectral:
        sp = np.abs(np.linalg.eigvals(R[spectral])).max(axis=1)
        for i, s in zip(spectral, sp):
            if s >= 1.0:
                reasons[i] = f"sp(R)={s:.6g} >= 1 (not the minimal solution)"
    return reasons, residual


def _method_max_iter(method: str) -> int:
    # Substitution counts linear-convergence steps; the reduction
    # methods count quadratic doubling steps.
    return 100_000 if method == "substitution" else 64


def resilient_solve_R(A0, A1, A2, *, method: str = "logreduction",
                      tol: float = 1e-12,
                      budget: float | None = None,
                      R0: np.ndarray | None = None,
                      backend: str | None = None,
                      ) -> tuple[np.ndarray, SolveReport]:
    """Solve ``R^2 A2 + R A1 + A0 = 0`` with fallback, retries, budgets.

    Walks :func:`default_chain` of ``method`` and returns ``(R,
    report)`` on the first attempt that passes :func:`accept_R`.
    ``budget`` is the wall-clock budget of the whole solve in seconds
    (``None``: no clock).  It is checked between attempts and threaded
    into the substitution and cyclic-reduction loops as a deadline
    (see ``solve_R(..., deadline=)``), so one runaway attempt cannot
    exceed it by more than a single iteration.  ``R0`` is an optional
    warm-start iterate and ``backend`` the backend mode, both
    forwarded to every :func:`~repro.qbd.rmatrix.solve_R` attempt
    (:func:`~repro.qbd.rmatrix.warm_seed` decides whether the seed is
    used); the attempt is still validated, so a stale seed can only
    cost a retry, never a wrong answer.

    Raises
    ------
    SolverBudgetExceededError
        The wall-clock budget or :data:`MAX_TOTAL_ITERATIONS` ran out
        first.  The partial attempt history is attached as
        ``exc.report``.
    ConvergenceError
        Every method and retry failed within budget (``exc.report``
        attached).
    """
    from repro.qbd.rmatrix import solve_R

    chain = default_chain(method)
    A0 = np.asarray(A0, dtype=np.float64)
    A1 = np.asarray(A1, dtype=np.float64)
    A2 = np.asarray(A2, dtype=np.float64)

    report = SolveReport()
    t0 = time.monotonic()
    deadline = t0 + budget if budget is not None else None
    iterations_used = 0
    best_residual: float | None = None

    def _out_of_budget() -> None:
        elapsed = time.monotonic() - t0
        if budget is not None and elapsed > budget:
            exc = SolverBudgetExceededError(
                f"R-matrix solve exceeded its wall-clock budget "
                f"({elapsed:.3g}s > {budget:.3g}s) after "
                f"{len(report.attempts)} attempt(s)",
                iterations=iterations_used, residual=best_residual,
                elapsed=elapsed, budget=budget)
            exc.report = report
            raise exc
        if iterations_used >= MAX_TOTAL_ITERATIONS:
            exc = SolverBudgetExceededError(
                f"R-matrix solve exceeded its iteration budget "
                f"({iterations_used} >= {MAX_TOTAL_ITERATIONS}) after "
                f"{len(report.attempts)} attempt(s)",
                iterations=iterations_used, residual=best_residual,
                elapsed=time.monotonic() - t0,
                budget=float(MAX_TOTAL_ITERATIONS))
            exc.report = report
            raise exc

    for m in chain:
        attempt_tol = tol
        regularization = 0.0
        for attempt in range(ATTEMPTS_PER_METHOD):
            _out_of_budget()
            max_iter = min(_method_max_iter(m),
                           MAX_TOTAL_ITERATIONS - iterations_used)
            A1_eff = A1
            if regularization > 0.0:
                scale = float(np.max(np.abs(np.diag(A1)))) or 1.0
                A1_eff = A1 - regularization * scale * np.eye(A1.shape[0])
            t_attempt = time.monotonic()
            try:
                R, info = solve_R(A0, A1_eff, A2, method=m, tol=attempt_tol,
                                  max_iter=max_iter, R0=R0,
                                  backend=backend, return_info=True,
                                  deadline=deadline)
            except (ConvergenceError, np.linalg.LinAlgError) as exc:
                elapsed = time.monotonic() - t_attempt
                iters = getattr(exc, "iterations", None)
                resid = getattr(exc, "residual", None)
                iterations_used += iters if iters is not None else max_iter
                if resid is not None:
                    best_residual = resid if best_residual is None \
                        else min(best_residual, resid)
                report.attempts.append(AttemptRecord(
                    method=m, attempt=attempt, tol=attempt_tol,
                    regularization=regularization, outcome="error",
                    error=f"{type(exc).__name__}: {exc}",
                    iterations=iters, residual=resid, elapsed=elapsed,
                    backend=backend))
                metrics.inc("fallback.attempts", method=m, outcome="error")
                # Ran out of steam: relax the tolerance, add a tiny
                # killing rate to break near-singularity.
                attempt_tol *= TOL_RELAX
                regularization = REGULARIZATION \
                    if regularization == 0.0 else regularization * 100.0
                continue
            elapsed = time.monotonic() - t_attempt
            # Judged against the *unregularized* blocks.
            [reason], residual = accept_R(R[None], A0[None], A1[None],
                                          A2[None])
            report.attempts.append(AttemptRecord(
                method=m, attempt=attempt, tol=attempt_tol,
                regularization=regularization,
                outcome="ok" if reason is None else "invalid",
                error=reason, iterations=info.iterations,
                residual=float(residual[0]), elapsed=elapsed,
                backend=backend))
            if reason is None:
                metrics.inc("fallback.attempts", method=m, outcome="ok")
                metrics.inc("fallback.solves", status="ok",
                            fallback=attempt > 0 or m != chain[0])
                report.method = m
                return np.clip(R, 0.0, None), report
            iterations_used += _method_max_iter(m) if m != "spectral" else 1
            metrics.inc("fallback.attempts", method=m, outcome="invalid")
            # Converged to a bad answer: tighten, drop regularization.
            attempt_tol *= TOL_TIGHTEN
            regularization = 0.0

    # A deadline that fired inside the last attempt must still surface
    # as a budget error, not a generic every-method-failed one.
    _out_of_budget()
    metrics.inc("fallback.solves", status="failed")
    exc = ConvergenceError(
        f"every R-matrix method failed ({len(report.attempts)} attempts "
        f"over chain {chain}); last: {report.attempts[-1].describe()}",
        iterations=iterations_used, residual=best_residual)
    exc.report = report
    raise exc
