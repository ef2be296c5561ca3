"""Run a :class:`~repro.scenario.spec.Scenario`: one entry point, one
unified result.

:func:`run` dispatches the scenario onto the existing machinery — the
sweep driver for the analytic engine
(:func:`repro.workloads.sweeps.sweep_scenario`), the replication
front-end for the simulator
(:func:`repro.sim.runner.simulate_scenario_point`) — and folds the
outputs into one :class:`RunResult`: per-point measures for whichever
engines ran and cross-engine relative deltas when both did.

A swept scenario whose engine sets ``checkpoint`` or ``workers > 1``
runs as a client of the scenario service instead: its points are
looked up in, and persisted to, a
:class:`~repro.service.store.ResultStore` (the ``checkpoint``
directory, or a throw-away one) and solved on a
:class:`~repro.service.supervisor.SupervisedPool`
(:func:`repro.service.daemon.execute`).  A rerun resumes from the
store, and ``RunResult.resumed`` counts the points it served.

The scenario's name rides along as a span attribute and metric label
(``scenario.run`` / ``scenario.runs``), so traces and metric snapshots
of multi-scenario services stay attributable.
"""

from __future__ import annotations

import contextlib
import math
import tempfile
from dataclasses import dataclass, field

from repro import obs
from repro.core.model import GangSchedulingModel, SolvedModel
from repro.obs import metrics
from repro.obs import trace as obs_trace
from repro.obs.trace import span
from repro.scenario.spec import Scenario
from repro.sim.runner import SimPointEstimate, simulate_scenario_point
from repro.workloads.sweeps import SweepPoint, solved_point, sweep_scenario

__all__ = ["RunPoint", "RunResult", "run",
           "run_point_to_dict", "run_point_from_dict",
           "run_result_to_dict", "run_result_from_dict"]


@dataclass(frozen=True)
class RunPoint:
    """Measures at one grid value (or the single unswept point).

    ``mean_jobs``/``mean_response_time`` hold the analytic solution,
    ``sim_*`` the simulation estimate; either side is ``None`` when its
    engine did not run.  ``delta`` is the per-class relative gap
    ``(analytic - sim) / sim`` on mean jobs when both ran.
    """

    value: float | None
    mean_jobs: tuple[float, ...] | None = None
    mean_response_time: tuple[float, ...] | None = None
    iterations: int = 0
    converged: bool = True
    error: str | None = None
    sim_mean_jobs: tuple[float, ...] | None = None
    sim_mean_response_time: tuple[float, ...] | None = None
    sim_half_width: tuple[float, ...] | None = None
    delta: tuple[float, ...] | None = None
    #: Analytic per-class response-time metric rows — ``metrics[p]``
    #: holds one value per selector in ``RunResult.metric_names`` —
    #: and the distribution kind backing them ("exact", "moment",
    #: "saturated", "unsupported").  ``None`` unless the scenario asked
    #: for selectors beyond the default ``("mean",)``.
    metrics: tuple[tuple[float, ...], ...] | None = None
    dist_kinds: tuple[str, ...] | None = None
    #: Simulated empirical counterparts, same shape, with Student-t CI
    #: half-widths (zeros for a single run).
    sim_metrics: tuple[tuple[float, ...], ...] | None = None
    sim_metric_half_width: tuple[tuple[float, ...], ...] | None = None


@dataclass
class RunResult:
    """Everything :func:`run` produced for one scenario."""

    scenario: Scenario
    engine: str
    parameter: str | None
    class_names: tuple[str, ...]
    points: list[RunPoint] = field(default_factory=list)
    #: Metric selectors the points' ``metrics`` rows are aligned to
    #: (``None`` when the run carried only means).
    metric_names: tuple[str, ...] | None = None
    #: Sweep points served from the checkpoint store instead of solved.
    resumed: int = 0
    #: Full solution detail for an unswept analytic run.
    solved: SolvedModel | None = None
    #: Full simulation detail for an unswept sim run (a
    #: :class:`~repro.sim.runner.SimPointEstimate`).
    sim: SimPointEstimate | None = None

    def values(self) -> list[float]:
        return [pt.value for pt in self.points]

    def series(self, p: int) -> list[float]:
        """Analytic ``N_p`` along the grid (``nan`` for failed points)."""
        return [pt.mean_jobs[p] if pt.error is None and pt.mean_jobs is not None
                else float("nan") for pt in self.points]

    def delta_series(self, p: int) -> list[float]:
        """Cross-engine relative gap along the grid (``both`` runs)."""
        return [pt.delta[p] if pt.delta is not None else float("nan")
                for pt in self.points]

    def max_abs_delta(self) -> float:
        """Largest per-class |relative gap| over the run (``both`` only)."""
        worst = 0.0
        for pt in self.points:
            if pt.delta is None:
                continue
            for d in pt.delta:
                if not math.isnan(d):
                    worst = max(worst, abs(d))
        return worst

    def to_table(self, measure: str = "mean_jobs"):
        """Render the run as an :class:`~repro.analysis.series.Table`.

        Analytic columns come first (``N[...]``/``T[...]``), then the
        simulation's (``sim*``), then ``delta[...]`` for ``both`` runs.
        """
        from repro.analysis import Table

        short = {"mean_jobs": "N", "mean_response_time": "T"}[measure]
        analytic = self.engine in ("analytic", "both")
        simulated = self.engine in ("sim", "both")
        columns = []
        if analytic:
            columns += [f"{short}[{n}]" for n in self.class_names]
        if simulated:
            columns += [f"sim{short}[{n}]" for n in self.class_names]
        if analytic and simulated and measure == "mean_jobs":
            columns += [f"delta[{n}]" for n in self.class_names]
        table = Table(self.parameter or "point", columns)
        nan = (float("nan"),) * len(self.class_names)
        for i, pt in enumerate(self.points):
            row: list[float] = []
            if analytic:
                row += list(getattr(pt, measure) or nan)
            if simulated:
                row += list(getattr(pt, f"sim_{measure}") or nan)
            if analytic and simulated and measure == "mean_jobs":
                row += list(pt.delta or nan)
            table.add_row(pt.value if pt.value is not None else float(i), row)
        return table

    def metrics_table(self):
        """Per-class response-time metric columns along the grid.

        One column per ``(selector, class)`` for whichever engines
        carried metric rows — ``p99[interactive]`` for the analytic
        distribution value, ``sim:p99[interactive]`` for the empirical
        estimate.  Returns ``None`` when the run carried no selectors
        beyond the default mean.
        """
        from repro.analysis import Table

        if self.metric_names is None:
            return None
        analytic = any(pt.metrics is not None for pt in self.points)
        simulated = any(pt.sim_metrics is not None for pt in self.points)
        columns = []
        if analytic:
            columns += [f"{sel}[{n}]" for sel in self.metric_names
                        for n in self.class_names]
        if simulated:
            columns += [f"sim:{sel}[{n}]" for sel in self.metric_names
                        for n in self.class_names]
        if not columns:
            return None
        table = Table(self.parameter or "point", columns)
        width = len(self.metric_names) * len(self.class_names)
        nan = [float("nan")] * width

        def flat(rows):
            # rows[p][s] -> selector-major order to match the columns.
            if rows is None:
                return nan
            return [rows[p][s] for s in range(len(self.metric_names))
                    for p in range(len(self.class_names))]

        for i, pt in enumerate(self.points):
            row: list[float] = []
            if analytic:
                row += flat(pt.metrics)
            if simulated:
                row += flat(pt.sim_metrics)
            table.add_row(pt.value if pt.value is not None else float(i), row)
        return table


def run_point_to_dict(pt: RunPoint) -> dict:
    """JSON form of one :class:`RunPoint` (round-trips exactly).

    Python's ``json`` encodes floats shortest-repr and accepts the
    non-strict ``NaN``/``Infinity`` tokens failed/saturated points
    produce, so a stored point replays byte-identically.
    """
    def seq(t):
        return None if t is None else [float(x) for x in t]

    data = {
        "value": None if pt.value is None else float(pt.value),
        "mean_jobs": seq(pt.mean_jobs),
        "mean_response_time": seq(pt.mean_response_time),
        "iterations": int(pt.iterations),
        "converged": bool(pt.converged),
        "error": pt.error,
        "sim_mean_jobs": seq(pt.sim_mean_jobs),
        "sim_mean_response_time": seq(pt.sim_mean_response_time),
        "sim_half_width": seq(pt.sim_half_width),
        "delta": seq(pt.delta),
    }
    # Distribution-metric fields only appear when computed, so every
    # pre-distribution store payload keeps its exact historical bytes.
    if pt.metrics is not None:
        data["metrics"] = [seq(row) for row in pt.metrics]
    if pt.dist_kinds is not None:
        data["dist_kinds"] = list(pt.dist_kinds)
    if pt.sim_metrics is not None:
        data["sim_metrics"] = [seq(row) for row in pt.sim_metrics]
    if pt.sim_metric_half_width is not None:
        data["sim_metric_half_width"] = [
            seq(row) for row in pt.sim_metric_half_width]
    return data


def run_point_from_dict(data: dict) -> RunPoint:
    """Rebuild a :class:`RunPoint` from :func:`run_point_to_dict`."""
    def seq(v):
        return None if v is None else tuple(float(x) for x in v)

    def rows(v):
        return None if v is None else tuple(seq(row) for row in v)

    return RunPoint(
        value=None if data.get("value") is None else float(data["value"]),
        mean_jobs=seq(data.get("mean_jobs")),
        mean_response_time=seq(data.get("mean_response_time")),
        iterations=int(data.get("iterations", 0)),
        converged=bool(data.get("converged", True)),
        error=data.get("error"),
        sim_mean_jobs=seq(data.get("sim_mean_jobs")),
        sim_mean_response_time=seq(data.get("sim_mean_response_time")),
        sim_half_width=seq(data.get("sim_half_width")),
        delta=seq(data.get("delta")),
        metrics=rows(data.get("metrics")),
        dist_kinds=(None if data.get("dist_kinds") is None
                    else tuple(str(k) for k in data["dist_kinds"])),
        sim_metrics=rows(data.get("sim_metrics")),
        sim_metric_half_width=rows(data.get("sim_metric_half_width")),
    )


def run_result_to_dict(result: RunResult) -> dict:
    """The *deterministic* JSON form of a run result.

    This is the payload the scenario service stores and replays, so it
    carries only fields that depend on the scenario's result identity:
    the engine, grid metadata, and every point's measures.  Execution
    artifacts — the resume counter, the full :class:`SolvedModel` /
    simulator detail — are deliberately excluded: two runs of the same
    scenario must serialize to identical bytes whether they were
    solved cold, resumed from a checkpoint, or assembled shard by
    shard by the service.
    """
    data = {
        "engine": result.engine,
        "parameter": result.parameter,
        "class_names": list(result.class_names),
        "points": [run_point_to_dict(pt) for pt in result.points],
    }
    if result.metric_names is not None:
        data["metric_names"] = list(result.metric_names)
    return data


def run_result_from_dict(data: dict, scenario: Scenario | None = None,
                         ) -> RunResult:
    """Rebuild a :class:`RunResult` from :func:`run_result_to_dict`.

    ``scenario`` re-attaches the spec the payload was computed from
    (the service client passes the one it submitted); the solver-side
    extras (``solved``/``sim``/resume counters) are gone for good —
    they never travel.
    """
    metric_names = data.get("metric_names")
    return RunResult(
        scenario=scenario,
        engine=str(data["engine"]),
        parameter=data.get("parameter"),
        class_names=tuple(str(n) for n in data["class_names"]),
        points=[run_point_from_dict(p) for p in data.get("points", [])],
        metric_names=(None if metric_names is None
                      else tuple(str(m) for m in metric_names)),
    )


def _sim_metric_rows(spt: SimPointEstimate | None,
                     selectors: tuple[str, ...] | None,
                     ) -> tuple[tuple | None, tuple | None]:
    """Reshape a sim estimate's per-selector dicts into per-class rows.

    :class:`SimPointEstimate` keys its empirical metrics by selector;
    :class:`RunPoint` stores selector values per class (matching the
    analytic rows), so transpose on the scenario's selector order.
    """
    if (spt is None or selectors is None or spt.metrics is None):
        return None, None
    num_classes = len(spt.mean_jobs)
    est = tuple(tuple(float(spt.metrics[sel][p]) for sel in selectors)
                for p in range(num_classes))
    hw = tuple(tuple(float(spt.metric_half_width[sel][p])
                     for sel in selectors)
               for p in range(num_classes))
    return est, hw


def _combine(value: float | None, apt: SweepPoint | None,
             spt: SimPointEstimate | None,
             selectors: tuple[str, ...] | None = None) -> RunPoint:
    """Fold one grid point's analytic and/or sim output into a RunPoint."""
    delta = None
    if apt is not None and spt is not None and apt.error is None:
        delta = tuple(
            (a - s) / s if s > 0 else float("nan")
            for a, s in zip(apt.mean_jobs, spt.mean_jobs))
    sim_metrics, sim_metric_hw = _sim_metric_rows(spt, selectors)
    return RunPoint(
        value=value,
        mean_jobs=apt.mean_jobs if apt is not None else None,
        mean_response_time=(apt.mean_response_time
                            if apt is not None else None),
        iterations=apt.iterations if apt is not None else 0,
        converged=apt.converged if apt is not None else True,
        error=apt.error if apt is not None else None,
        sim_mean_jobs=spt.mean_jobs if spt is not None else None,
        sim_mean_response_time=(spt.mean_response_time
                                if spt is not None else None),
        sim_half_width=spt.half_width if spt is not None else None,
        delta=delta,
        metrics=apt.metrics if apt is not None else None,
        dist_kinds=apt.dist_kinds if apt is not None else None,
        sim_metrics=sim_metrics,
        sim_metric_half_width=sim_metric_hw,
    )


def _metric_selectors(scenario: Scenario) -> tuple[str, ...] | None:
    """The scenario's selector tuple, or ``None`` for means-only runs."""
    out = getattr(scenario, "output", None)
    if out is not None and getattr(out, "wants_distributions", False):
        return tuple(out.metrics)
    return None


def _run_on_store(scenario: Scenario) -> RunResult:
    """Run a swept scenario on the service's result store and pool.

    The store is ``engine.checkpoint`` (a directory, in the format of
    ``serve --store``) or a throw-away temporary one; the pool has
    ``engine.workers`` processes, or solves inline for
    ``workers <= 1``.  Completed shards are persisted as they finish,
    so an interrupted run resumes from the store.
    """
    from repro.service.daemon import execute
    from repro.service.store import ResultStore
    from repro.service.supervisor import SupervisedPool

    eng = scenario.engine
    workers = eng.workers or 0
    tracer = obs_trace.current_tracer()
    with contextlib.ExitStack() as stack:
        root = eng.checkpoint or stack.enter_context(
            tempfile.TemporaryDirectory(prefix="repro-store-"))
        store = stack.enter_context(ResultStore(root))
        if tracer is not None:
            # Runs after the pool closes: fold the workers' sidecar
            # traces into this run's trace.
            stack.callback(obs_trace.merge_worker_traces, tracer)
        pool = stack.enter_context(SupervisedPool(
            workers if workers > 1 else 0,
            trace_base=str(tracer.path) if tracer is not None else None))
        result, counts = execute(scenario, store, pool)
    out = run_result_from_dict(result, scenario)
    out.resumed = counts["store_points"]
    return out


def _run_sweep(scenario: Scenario) -> RunResult:
    eng = scenario.engine
    if eng.checkpoint or (eng.workers or 0) > 1:
        return _run_on_store(scenario)
    axis = scenario.system.axis
    selectors = _metric_selectors(scenario)
    sweep_res = sweep_scenario(scenario) if eng.analytic else None
    sims: list[SimPointEstimate] | None = None
    if eng.simulated:
        sims = [simulate_scenario_point(scenario,
                                        scenario.system.config_for(v))
                for v in axis.values]
    names = (sweep_res.class_names if sweep_res is not None
             else scenario.system.config_for(axis.values[0]).class_names)
    points = [
        _combine(v,
                 sweep_res.points[i] if sweep_res is not None else None,
                 sims[i] if sims is not None else None,
                 selectors)
        for i, v in enumerate(axis.values)
    ]
    return RunResult(
        scenario=scenario, engine=eng.engine, parameter=axis.parameter,
        class_names=names, points=points,
        metric_names=selectors,
    )


def _run_point(scenario: Scenario) -> RunResult:
    eng = scenario.engine
    config = scenario.system.config_for()
    selectors = _metric_selectors(scenario)
    solved = None
    apt = None
    if eng.analytic:
        model_kwargs = eng.model_kwargs()
        if scenario.system.policy is not None:
            model_kwargs["policy"] = scenario.system.policy
        solved = GangSchedulingModel(
            config, **model_kwargs).solve(**eng.solve_kwargs())
        apt = solved_point(0.0, solved, selectors)
    sim_est = (simulate_scenario_point(scenario, config)
               if eng.simulated else None)
    return RunResult(
        scenario=scenario, engine=eng.engine, parameter=None,
        class_names=config.class_names,
        points=[_combine(None, apt, sim_est, selectors)],
        metric_names=selectors,
        solved=solved, sim=sim_est,
    )


def run(scenario: Scenario) -> RunResult:
    """Evaluate one scenario end to end.

    Dispatches on the spec: swept systems go through the sweep driver
    (or, with ``checkpoint`` or ``workers > 1``, through the service's
    result store and worker pool), unswept ones are solved/simulated
    directly; ``both`` runs both engines and reports per-class deltas.
    When the scenario's output spec names a trace file or asks for
    metrics and no collector is armed yet, the run is wrapped in its
    own observability session.

    Worker processes are forked only on Linux from a caller with no
    other threads, and spawned otherwise.  A portable script that calls
    ``run`` with ``workers > 1`` needs an ``if __name__ == "__main__":``
    guard, and spawned workers cannot start from code piped in through
    ``python -``.
    """
    out = scenario.output
    arm = ((out.trace is not None or out.collect_metrics)
           and obs_trace.current_tracer() is None and not metrics.enabled())
    if arm:
        obs.start(trace_path=out.trace, collect_metrics=out.collect_metrics)
    policy = scenario.system.policy
    policy_kind = policy.kind if policy is not None else "round-robin"
    try:
        with span("scenario.run", scenario=scenario.name,
                  engine=scenario.engine.engine, policy=policy_kind):
            metrics.inc("scenario.runs", scenario=scenario.name,
                        engine=scenario.engine.engine, policy=policy_kind)
            if scenario.system.axis is not None:
                return _run_sweep(scenario)
            return _run_point(scenario)
    finally:
        if arm:
            obs.stop()
