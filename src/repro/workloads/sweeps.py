"""Generic one-parameter sweep driver.

Every figure of the paper is "solve the model along a grid of one
parameter and plot ``N_p``".  :func:`sweep` runs that loop for any
``value -> SystemConfig`` factory, via the analytic model and/or the
simulator, and returns a :class:`SweepResult` table the benches print.

The loop is in-process: it solves the grid in chunks of adjacent
points that advance in lockstep (:mod:`repro.workloads.batched`,
:data:`CHUNK_POINTS` wide by default), each point with the exact
numbers of its single solve.  Checkpointed and parallel sweeps run one
level up: :func:`repro.scenario.run` hands a scenario whose engine sets
``checkpoint`` or ``workers > 1`` to the scenario service's result
store and supervised worker pool (:func:`repro.service.daemon.execute`),
whose shards come back here as plain sweeps.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.core.config import SystemConfig
from repro.core.model import SolvedModel
from repro.obs import metrics as obs_metrics

__all__ = ["CHUNK_POINTS", "SweepPoint", "SweepResult", "sweep",
           "sweep_scenario"]

#: Points a sweep solves in lockstep when its ``batch`` is unset or 0.
CHUNK_POINTS = 8


@dataclass(frozen=True)
class SweepPoint:
    """Solved metrics at one sweep value."""

    value: float
    mean_jobs: tuple[float, ...]
    mean_response_time: tuple[float, ...]
    iterations: int
    converged: bool
    error: str | None = None
    #: Per-class metric selector values — ``metrics[p][j]`` is class
    #: ``p`` evaluated at the sweep's ``j``-th requested selector
    #: (``"mean"``, ``"p99"``, ``"tail@t"``, …).  ``None`` unless the
    #: sweep asked for distribution metrics.
    metrics: tuple[tuple[float, ...], ...] | None = None
    #: Per-class distribution kinds backing ``metrics`` (``"exact"``,
    #: ``"moment"``, ``"saturated"``, ``"unsupported"``).
    dist_kinds: tuple[str, ...] | None = None
    #: Wall-clock seconds spent solving this point: an equal share of
    #: its lockstep chunk (``None`` when the point errored before
    #: solving).  Not part of equality: two runs of the same sweep
    #: produce equal points even though their timings differ.
    solve_seconds: float | None = field(default=None, compare=False)
    #: ``False`` on every solved sweep point (each starts cold).  Not
    #: part of equality.  Kept because
    #: ``bench/ledger.py::_count_warm_points`` reads it.
    warm: bool | None = field(default=None, compare=False)


@dataclass
class SweepResult:
    """A completed sweep: one :class:`SweepPoint` per grid value."""

    parameter: str
    class_names: tuple[str, ...]
    points: list[SweepPoint] = field(default_factory=list)

    def values(self) -> list[float]:
        return [pt.value for pt in self.points]

    def series(self, p: int) -> list[float]:
        """The ``N_p`` curve for class ``p`` (``nan`` for failed points)."""
        return [pt.mean_jobs[p] if pt.error is None else float("nan")
                for pt in self.points]

    def to_rows(self) -> list[list]:
        """Header + rows, ready for CSV or pretty printing."""
        header = [self.parameter] + [f"N[{n}]" for n in self.class_names]
        rows: list[list] = [header]
        for pt in self.points:
            if pt.error is None:
                rows.append([pt.value] + list(pt.mean_jobs))
            else:
                rows.append([pt.value] + [float("nan")] * len(self.class_names))
        return rows

    def render(self, *, fmt: str = "{:>10.4f}") -> str:
        """Fixed-width text table mirroring the paper's figure series."""
        rows = self.to_rows()
        out = ["  ".join(f"{h:>10}" for h in rows[0])]
        for row in rows[1:]:
            out.append("  ".join(fmt.format(v) for v in row))
        return "\n".join(out)


def solved_point(value: float, solved: SolvedModel,
                 selectors: tuple[str, ...] | None = None, *,
                 solve_seconds: float | None = None,
                 warm: bool | None = None) -> SweepPoint:
    """The :class:`SweepPoint` of one solved model.

    Carries the per-class means and, with ``selectors``, the per-class
    metric rows and distribution kinds (saturated classes degrade to
    the ``saturated`` marker kind instead of failing the point).
    """
    point_metrics = dist_kinds = None
    if selectors:
        from repro.metrics.distributions import metric_values

        num_classes = len(solved.classes)
        point_metrics = tuple(metric_values(solved, p, selectors)
                              for p in range(num_classes))
        dist_kinds = tuple(solved.distributions(p).kind
                           for p in range(num_classes))
    return SweepPoint(
        value=value,
        mean_jobs=tuple(c.mean_jobs for c in solved.classes),
        mean_response_time=tuple(c.mean_response_time
                                 for c in solved.classes),
        iterations=solved.iterations,
        converged=solved.converged,
        metrics=point_metrics,
        dist_kinds=dist_kinds,
        solve_seconds=solve_seconds,
        warm=warm,
    )


def _error_point(v: float, names: Sequence[str],
                 exc: Exception) -> SweepPoint:
    return SweepPoint(
        value=v,
        mean_jobs=tuple(float("nan") for _ in names),
        mean_response_time=tuple(float("nan") for _ in names),
        iterations=0, converged=False,
        error=f"{type(exc).__name__}: {exc}",
    )


def sweep(parameter: str, values: Sequence[float],
          config_factory: Callable[[float], SystemConfig],
          *, heavy_traffic_only: bool = False,
          model_kwargs: dict | None = None,
          solve_kwargs: dict | None = None,
          batch: int | None = None,
          metrics: Sequence[str] | None = None) -> SweepResult:
    """Solve the analytic model along a parameter grid.

    An unstable or failed point is recorded (with the error class and
    message) instead of aborting the sweep.

    Parameters
    ----------
    parameter:
        Display name of the swept quantity (table header).
    values:
        Grid values, passed to ``config_factory`` one at a time.
    config_factory:
        ``value -> SystemConfig``.
    heavy_traffic_only:
        Solve only the Theorem 4.1 model (no fixed point).
    model_kwargs, solve_kwargs:
        Extra keyword arguments for :class:`GangSchedulingModel` /
        its ``solve``.
    batch:
        Chunk width: solve up to this many adjacent grid points at once
        in lockstep (:mod:`repro.workloads.batched`), which stacks their
        linear algebra and returns each point's single-solve numbers.
        ``None``/``0`` means :data:`CHUNK_POINTS`; ``1`` solves one
        point at a time.  The width changes speed and memory, never a
        number.
    metrics:
        Metric selectors (see :mod:`repro.metrics.selectors`) to
        evaluate per class at every point, populating
        :attr:`SweepPoint.metrics` / :attr:`SweepPoint.dist_kinds`
        from the solved model's response-time distributions.
        Saturated points degrade to the ``saturated`` marker instead
        of erroring.

    Checkpointing and worker processes are scenario-level: see
    :func:`repro.scenario.run`.
    """
    if len(values) == 0:
        raise ValueError("sweep requires at least one grid value")
    metrics_sel = None
    if metrics is not None and any(m != "mean" for m in metrics):
        metrics_sel = tuple(str(m) for m in metrics)
    # Every config is built up front, in grid order.
    grid = [float(v) for v in values]
    pending = [(slot, v, config_factory(v)) for slot, v in enumerate(grid)]
    points: list[SweepPoint | None] = [None] * len(grid)

    # The optional third argument exists only for the benchmark ledger
    # (``bench/ledger.py::_count_warm_points``), whose wrapper around
    # the chunk driver's ``finish`` passes one through.
    def finish(slot: int, point: SweepPoint, _extra=None) -> None:
        points[slot] = point
        obs_metrics.inc("sweep.points",
                        status="ok" if point.error is None else "error")

    from repro.workloads.batched import run_batched_pending

    run_batched_pending(
        grid=grid,
        pending=pending,
        batch=int(batch or CHUNK_POINTS),
        heavy_traffic_only=heavy_traffic_only,
        model_kwargs=model_kwargs,
        solve_kwargs=solve_kwargs,
        finish=finish,
        metrics_sel=metrics_sel,
    )

    return SweepResult(parameter=parameter,
                       class_names=pending[0][2].class_names, points=points)


def sweep_scenario(scenario) -> SweepResult:
    """Run a swept scenario's analytic side through :func:`sweep`.

    ``scenario`` is a :class:`repro.scenario.spec.Scenario` with a
    sweep axis; its engine spec supplies the model/solve kwargs and the
    chunk width.  Its ``checkpoint``/``workers`` knobs are not read
    here: :func:`repro.scenario.run` serves such scenarios from the
    service's result store and worker pool.  (Duck-typed to keep this
    layer import-free of :mod:`repro.scenario`, which sits above it.)
    """
    axis = scenario.system.axis
    if axis is None:
        from repro.errors import ValidationError
        raise ValidationError(
            f"scenario {scenario.name!r} has no sweep axis; "
            "solve it directly with repro.scenario.run")
    eng = scenario.engine
    solve_kwargs = eng.solve_kwargs()
    heavy_traffic_only = solve_kwargs.pop("heavy_traffic_only")
    model_kwargs = eng.model_kwargs()
    policy = getattr(scenario.system, "policy", None)
    if policy is not None:
        model_kwargs["policy"] = policy
    out = getattr(scenario, "output", None)
    metrics_sel = (tuple(out.metrics)
                   if out is not None
                   and getattr(out, "wants_distributions", False) else None)
    return sweep(axis.parameter, axis.values, scenario.system.config_for,
                 heavy_traffic_only=heavy_traffic_only,
                 model_kwargs=model_kwargs,
                 solve_kwargs=solve_kwargs,
                 batch=getattr(eng, "batch_points", 0),
                 metrics=metrics_sel)
