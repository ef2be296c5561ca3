"""The fixed-point iteration of Section 4.3.

One iteration:

1. For each class ``p``, build the QBD with the current vacation
   distribution ``F_p`` and solve it (Theorem 4.2 machinery).
2. From each solved chain, extract the effective-quantum distribution
   (Theorem 4.3), optionally compressing it by moment matching.
3. Reassemble every ``F_p`` from the other classes' effective quanta
   and repeat until the per-class mean job counts stop moving.

This module is the only home of that loop.  :func:`run_lockstep`
advances n >= 1 points through it in lockstep, each point carrying
one :class:`~repro.pipeline.context.SolveContext` (a reusable
assembly workspace, the previous iteration's ``R`` matrices as warm
starts, per-stage wall-clock timings).  The per-class work of steps
1-2 is the one solve stage of :mod:`repro.pipeline.stages`
(:func:`~repro.pipeline.stages.solve_points` and
:func:`~repro.pipeline.stages.extract_points`), which stacks the
points' drift tests, ``R`` solves and extractions.  A single solve
(:func:`run_fixed_point`) is the n = 1 case; a sweep chunk
(:mod:`repro.workloads.batched`) passes its points together.
Everything else — initialization, bootstrap, saturation, the
convergence test, Aitken, recombination and per-point failure
isolation — runs per point.

Initialization and saturation handling
--------------------------------------
The natural initialization is the heavy-traffic vacation of
Theorem 4.1 (every class exhausts its quantum) — an upper bound on
vacation lengths, from which the iteration descends monotonically.
Two refinements make the driver robust across the whole parameter
space of the paper's figures:

* **Optimistic bootstrap.**  The heavy-traffic vacations can fail the
  Theorem 4.4 drift test even when the true fixed point is stable
  (e.g. one class is granted most of the cycle, making the raw
  vacations of the others too long).  The driver then restarts from
  near-zero effective quanta and approaches the fixed point from
  below.
* **Partial (per-class) saturation.**  A class can be *genuinely*
  saturated — its share of the cycle cannot carry its load no matter
  how much the other classes shrink.  Such a class never empties, so
  its effective quantum is exactly its full quantum; the driver pins
  it there, reports ``inf`` mean jobs for it, and keeps solving the
  others (this is how the paper's Figure 5 can plot the focus class
  at cycle fractions that starve the rest).  Only when *every* class
  is saturated does the driver raise
  :class:`~repro.errors.UnstableSystemError`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import SystemConfig
from repro.core.statespace import ClassStateSpace
from repro.core.vacation import fixed_point_vacation, heavy_traffic_vacation
from repro.errors import UnstableSystemError
from repro.obs import metrics
from repro.obs.trace import span
from repro.phasetype import PhaseType
from repro.pipeline import stages
from repro.pipeline.context import SolveContext
from repro.policy import SchedulingPolicy, resolve_policy
from repro.qbd.stationary import QBDStationaryDistribution
from repro.qbd.structure import QBDProcess
from repro.resilience.fallback import DEFAULT_POLICY, ResiliencePolicy

__all__ = ["FixedPointOptions", "FixedPointResult", "IterationRecord",
           "PointState", "run_fixed_point", "run_lockstep"]


@dataclass(frozen=True)
class FixedPointOptions:
    """Tuning knobs of the fixed-point solver.

    Attributes
    ----------
    max_iterations:
        Iteration budget; the heavy-traffic solve counts as iteration 0.
    tol:
        Convergence threshold on the relative change of every stable
        class's mean job count between iterations.
    reduction:
        Effective-quantum order reduction (see
        :data:`repro.core.vacation.REDUCTIONS`).
    rmatrix_method:
        ``R``-matrix algorithm passed through to the QBD solver.
    truncation_mass:
        Tail mass allowed beyond the truncation level when extracting
        effective quanta.
    max_truncation_levels:
        Hard cap on the truncation level.
    heavy_traffic_only:
        Stop after the heavy-traffic solve (Theorem 4.1 model); no
        bootstrap or saturation handling is applied.
    """

    max_iterations: int = 200
    tol: float = 1e-5
    reduction: str = "moments2"
    rmatrix_method: str = "logreduction"
    #: Fallback/retry policy for every per-class QBD solve (see
    #: :mod:`repro.resilience.fallback`); ``None`` disables fallback,
    #: restoring fail-fast single-method solves.
    resilience: ResiliencePolicy | None = DEFAULT_POLICY
    truncation_mass: float = 1e-9
    max_truncation_levels: int = 400
    heavy_traffic_only: bool = False
    #: Scheduling policy shaping the cycle (``None`` = the paper's
    #: round-robin).  The policy's per-class views feed every stage:
    #: capacity ``c_p``, effective service, quantum mass, and the
    #: vacation cycle order (see :mod:`repro.policy`).
    policy: SchedulingPolicy | None = None
    #: Aitken delta-squared extrapolation of the effective-quantum
    #: means.  The plain iteration converges linearly (ratio ~0.8 on
    #: the paper's configurations), so extrapolating the per-class mean
    #: sequences periodically cuts the iteration count several-fold;
    #: extrapolated iterates that turn out unstable or non-positive are
    #: simply discarded for that round.
    acceleration: str = "aitken"
    #: Kernel backend for assembly and the QBD solves: ``"auto"``
    #: switches each block/solve between the dense and sparse kernels
    #: on a size-and-density threshold, ``"dense"``/``"sparse"`` force
    #: one side (see :mod:`repro.kernels`).
    backend: str = "auto"


@dataclass(frozen=True)
class IterationRecord:
    """Diagnostics for one fixed-point iteration.

    ``mean_jobs`` holds ``inf`` for classes saturated at that iterate.
    """

    iteration: int
    mean_jobs: tuple[float, ...]
    vacation_means: tuple[float, ...]
    max_rel_change: float


@dataclass
class FixedPointResult:
    """Raw output of the fixed-point driver (one entry per class).

    ``solutions[p]`` is ``None`` — and ``saturated[p]`` is ``True`` —
    for a class that is unstable at the fixed point.
    """

    spaces: list[ClassStateSpace]
    processes: list[QBDProcess]
    solutions: list[QBDStationaryDistribution | None]
    vacations: list[PhaseType]
    saturated: list[bool] = field(default_factory=list)
    history: list[IterationRecord] = field(default_factory=list)
    converged: bool = False
    used_bootstrap: bool = False
    #: Wall-clock seconds per pipeline stage, accumulated over the run.
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def iterations(self) -> int:
        return len(self.history)


def _optimistic_quanta(views) -> dict[int, PhaseType]:
    """Near-zero effective quanta: the shortest plausible vacations.

    Scaled from the *policy's* quanta so the bootstrap respects
    whatever mass the policy granted each class.
    """
    return {v.index: v.quantum.rescaled(max(1e-6, 1e-3 * v.quantum.mean))
            for v in views}


def _aitken_target(x0: np.ndarray, x1: np.ndarray, x2: np.ndarray,
                   tol: float) -> tuple[np.ndarray, bool]:
    """Aitken delta-squared extrapolation of a vector mean sequence.

    With ``x_{n+1} ~ x* + rho (x_n - x*)``, the extrapolation
    ``x* ~ x_n - (dx_n)^2 / (dx_n - dx_{n-1})`` lands near the fixed
    point in one step.  Returns ``(target, ok)``; ``ok`` is ``False``
    unless the window shows a clean linear-convergence signature:
    meaningful deltas whose componentwise ratios sit well inside
    ``(0, 1)``.  Near the fixed point (or on oscillation) Aitken
    overshoots and *slows* the plain iteration down, so such windows
    are rejected.
    """
    d1, d2 = x1 - x0, x2 - x1
    denom = d2 - d1
    safe = np.abs(denom) > 1e-14
    target = np.where(safe, x2 - d2 * d2 / np.where(safe, denom, 1.0), x2)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(np.abs(d1) > 1e-12, d2 / d1, 0.5)
    meaningful = float(np.max(np.abs(d2) / np.maximum(x2, 1e-12)))
    ok = bool(np.all(target > 0) and np.all(np.isfinite(target))
              and np.all(target <= x2 * 1.5 + 1e-12)
              and np.all((ratio > 0.2) & (ratio < 0.95))
              and meaningful > 50 * tol)
    return target, ok


class PointState:
    """One point advancing through the lockstep iteration."""

    def __init__(self, config: SystemConfig, opts: FixedPointOptions):
        self.config = config
        self.opts = opts
        self.pol = resolve_policy(opts.policy)
        self.ctx = SolveContext.create(config, opts)
        self.vacations: list[PhaseType] = []
        #: ``(spaces, processes, solutions, saturated)`` of the last solve.
        self.state = None
        self.result = FixedPointResult(spaces=[], processes=[], solutions=[],
                                       vacations=[])
        self.prev_means: np.ndarray | None = None
        self.prev_sat: list[bool] | None = None
        self.eff_hist: list[np.ndarray] = []
        self.error: BaseException | None = None
        #: Position in its lockstep batch (the point of a stacked
        #: span's ``[point, klass]`` job tags).
        self.index = 0
        self.finished = False
        self.started = time.perf_counter()
        self.elapsed = 0.0

    @property
    def L(self) -> int:
        return self.config.num_classes

    def fail(self, exc: BaseException) -> None:
        self.error = exc
        self.finish()

    def finish(self) -> None:
        self.finished = True
        self.elapsed = time.perf_counter() - self.started


def run_fixed_point(config: SystemConfig,
                    opts: FixedPointOptions | None = None) -> FixedPointResult:
    """Run the Section 4.3 fixed-point iteration to convergence.

    Raises
    ------
    UnstableSystemError
        When all classes are saturated (with ``heavy_traffic_only``,
        when any class fails the drift test — no recovery is attempted
        for the pure Theorem 4.1 model).
    """
    opts = opts or FixedPointOptions()
    pol = resolve_policy(opts.policy)
    with span("fixed_point", classes=config.num_classes, policy=pol.kind):
        point = PointState(config, opts)
        run_lockstep([point])
        if point.error is not None:
            raise point.error
        return point.result


def _live(points: list[PointState]) -> list[PointState]:
    return [pt for pt in points if not pt.finished]


def _start(pt: PointState) -> None:
    """Heavy-traffic vacations of Theorem 4.1: iteration 0."""
    pt.vacations = [heavy_traffic_vacation(pt.config, p, policy=pt.pol)
                    for p in range(pt.L)]
    pt.result.vacations = pt.vacations


def _bootstrap(pt: PointState) -> bool:
    """Restart from near-zero quanta when heavy traffic is unstable."""
    saturated = pt.state[3]
    if pt.opts.heavy_traffic_only and any(saturated):
        bad = [p for p, s in enumerate(saturated) if s]
        raise UnstableSystemError(
            f"heavy-traffic model unstable for class(es) {bad} "
            f"({', '.join(pt.config.class_names[p] for p in bad)})")
    if any(saturated):
        # Heavy-traffic init failed for someone: approach from below.
        pt.result.used_bootstrap = True
        eff0 = _optimistic_quanta(pt.ctx.views)
        pt.vacations = [fixed_point_vacation(pt.config, p, eff0,
                                             policy=pt.pol)
                        for p in range(pt.L)]
        return True
    return False


def _fail_saturated(points: list[PointState], message: str) -> None:
    for pt in _live(points):
        if all(pt.state[3]):
            pt.fail(UnstableSystemError(message))


def _record(pt: PointState, it: int) -> None:
    """Log iteration ``it`` and finish the point if it has converged."""
    spaces, processes, solutions, saturated = pt.state
    means = np.array([sol.mean_level if sol is not None else np.inf
                      for sol in solutions])
    stable_idx = [p for p in range(pt.L) if not saturated[p]]
    if pt.prev_means is None or pt.prev_sat != saturated:
        change = float("inf")
    elif stable_idx:
        diffs = [abs(means[p] - pt.prev_means[p]) / max(1.0, abs(means[p]))
                 for p in stable_idx]
        change = float(max(diffs))
    else:  # pragma: no cover - guarded by the all-saturated failure
        change = 0.0
    result = pt.result
    result.history.append(IterationRecord(
        iteration=it,
        mean_jobs=tuple(float(m) for m in means),
        vacation_means=tuple(v.mean for v in pt.vacations),
        max_rel_change=change,
    ))
    result.spaces, result.processes = spaces, processes
    result.solutions, result.vacations = solutions, pt.vacations
    result.saturated = saturated
    if pt.opts.heavy_traffic_only or (
            pt.prev_means is not None and pt.prev_sat == saturated
            and change < pt.opts.tol):
        result.converged = True
        pt.finish()
    else:
        pt.prev_means, pt.prev_sat = means, saturated


def _recombine(pt: PointState, it: int, reduced: dict) -> None:
    """Effective quanta, Aitken, and the next iterate's vacations."""
    opts, ctx, saturated = pt.opts, pt.ctx, pt.state[3]
    # Effective quanta: Theorem 4.3 for stable classes (extracted and
    # reduced by the solve stage); a saturated class never empties, so
    # its effective quantum is its full quantum (the heavy-traffic
    # behaviour, exactly).
    eff: dict[int, PhaseType] = {}
    for p in range(pt.L):
        eff[p] = (ctx.views[p].quantum if saturated[p]
                  else reduced[pt, p])

    # Aitken delta-squared acceleration on the per-class effective-
    # quantum means, applied every third round from a window of
    # three consecutive mean vectors.
    pt.eff_hist.append(np.array([eff[p].mean for p in range(pt.L)]))
    if opts.acceleration == "aitken" and len(pt.eff_hist) >= 3 \
            and it % 3 == 2 and not any(saturated):
        target, ok = _aitken_target(*pt.eff_hist[-3:], opts.tol)
        if ok:
            for p in range(pt.L):
                if eff[p].mean > 0 and target[p] != eff[p].mean:
                    eff[p] = PhaseType.from_trusted(
                        eff[p].alpha,
                        np.asarray(eff[p].S) * (eff[p].mean / target[p]))
            pt.eff_hist.clear()

    with span("stage.recombine", timings=ctx.timings, stage="recombine"):
        pt.vacations = [fixed_point_vacation(pt.config, p, eff, policy=pt.pol)
                        for p in range(pt.L)]


def _isolated(points: list[PointState], step, *args) -> list[PointState]:
    """Run ``step`` on every live point; a raise fails that point only.

    Returns the points for which ``step`` returned a truthy value.
    """
    chosen = []
    for pt in _live(points):
        try:
            if step(pt, *args):
                chosen.append(pt)
        except Exception as exc:  # noqa: BLE001 - per-point isolation
            pt.fail(exc)
    return chosen


def run_lockstep(points: list[PointState]) -> None:
    """Advance ``points`` through the Section 4.3 iteration in lockstep.

    Every point follows the same control flow — heavy-traffic start,
    optimistic bootstrap, per-class saturation, the convergence test,
    Aitken windows — and drops out when it converges, exhausts its
    iteration budget, or fails.  A failure is stored on the point
    (``point.error``) and never stops the others; results land in
    ``point.result``.  The points' per-class work is stacked by the
    solve stage, so they should share their options (a sweep chunk's
    points do).
    """
    for i, pt in enumerate(points):
        pt.index = i
    _isolated(points, _start)
    stages.solve_points(_live(points))
    stages.solve_points(_isolated(points, _bootstrap))
    _fail_saturated(points,
                    "every class is saturated: the offered load exceeds "
                    "the system's capacity under any vacation assignment")

    budget = max((max(1, pt.opts.max_iterations) for pt in _live(points)),
                 default=0)
    for it in range(budget):
        live = [pt for pt in _live(points)
                if it < max(1, pt.opts.max_iterations)]
        _isolated(live, _record, it)
        live = _live(live)
        if not live:
            break
        _isolated(live, _recombine, it, stages.extract_points(live))
        stages.solve_points(_live(live))
        _fail_saturated(live,
                        "every class became saturated during the "
                        "fixed-point iteration: the system is over capacity")
    for pt in points:
        if not pt.finished:  # iteration budget exhausted: not converged
            pt.finish()
        if pt.error is None:
            pt.result.timings = pt.ctx.timings.as_dict()
            metrics.inc("fixed_point.runs", converged=pt.result.converged,
                        bootstrap=pt.result.used_bootstrap, policy=pt.pol.kind)
            metrics.observe("fixed_point.iterations", pt.result.iterations)
