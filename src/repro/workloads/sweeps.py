"""Generic one-parameter sweep driver.

Every figure of the paper is "solve the model along a grid of one
parameter and plot ``N_p``".  :func:`sweep` runs that loop for any
``value -> SystemConfig`` factory, via the analytic model and/or the
simulator, and returns a :class:`SweepResult` table the benches print.

Crash safety
------------
Pass ``checkpoint="path/to/run.jsonl"`` and every completed point —
including *failed* points, which are recorded with their error class —
is journaled durably as it finishes.  Re-running the same sweep with
the same checkpoint resumes: journaled points are loaded instead of
re-solved, so a killed-and-resumed sweep reproduces the uninterrupted
run exactly.  Journaled points whose value is no longer on the grid
are ignored and counted on ``SweepResult.stale`` (with a warning).
See :mod:`repro.resilience.checkpoint`.

Parallelism
-----------
Pass ``workers=N`` to solve grid points in ``N`` OS processes.  Each
point is an independent model solve (its own workspaces, its own warm
starts), so a parallel sweep produces bit-identical points to a
serial one; journaling stays in the parent, appending points as they
complete (in any order — resume is keyed by value, not position), so
parallel sweeps compose with checkpointing unchanged.
"""

from __future__ import annotations

import os
import time
import warnings
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.core.config import SystemConfig
from repro.core.model import GangSchedulingModel
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.trace import span
from repro.resilience.checkpoint import SweepJournal
from repro.resilience.faults import maybe_fault

__all__ = ["SweepPoint", "SweepResult", "sweep", "sweep_scenario"]


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
    #: sweep asked for distribution metrics, so default sweeps (and
    #: their journals) are byte-identical to pre-distribution runs.
    metrics: tuple[tuple[float, ...], ...] | None = None
    #: Per-class distribution kinds backing ``metrics`` (``"exact"``,
    #: ``"moment"``, ``"saturated"``, ``"unsupported"``).
    dist_kinds: tuple[str, ...] | None = None
    #: Wall-clock seconds spent solving this point (``None`` when the
    #: point predates the field or errored before solving).  Not
    #: part of equality: two runs of the same sweep produce equal
    #: points even though their timings differ.
    solve_seconds: float | None = field(default=None, compare=False)
    #: Whether the solve was continuation-seeded (``True``), cold
    #: (``False``) or solved by an engine that does not track warm
    #: starts (``None``).  Not part of equality either: a warm solve
    #: and a cold solve of the same point agree to solver tolerance.
    warm: bool | None = field(default=None, compare=False)


@dataclass
class SweepResult:
    """A completed sweep: one :class:`SweepPoint` per grid value."""

    parameter: str
    class_names: tuple[str, ...]
    points: list[SweepPoint] = field(default_factory=list)
    #: Points loaded from a checkpoint journal instead of re-solved.
    resumed: int = 0
    #: Journaled points whose value is no longer on the grid (the grid
    #: changed between runs); they are ignored, not resumed.
    stale: int = 0

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


def _point_record(pt: SweepPoint) -> dict:
    # ``solve_seconds`` / ``warm`` are run-local provenance and are
    # deliberately NOT journaled: the journal of a resumed run must be
    # byte-identical to an uninterrupted one, and wall times are not.
    rec = {
        "value": pt.value,
        "mean_jobs": list(pt.mean_jobs),
        "mean_response_time": list(pt.mean_response_time),
        "iterations": pt.iterations,
        "converged": pt.converged,
        "error": pt.error,
    }
    # Emitted only when present, so journals of default sweeps keep
    # their pre-distribution bytes.
    if pt.metrics is not None:
        rec["metrics"] = [list(row) for row in pt.metrics]
    if pt.dist_kinds is not None:
        rec["dist_kinds"] = list(pt.dist_kinds)
    return rec


def _point_from_record(rec: dict) -> SweepPoint:
    metrics_rows = rec.get("metrics")
    dist_kinds = rec.get("dist_kinds")
    return SweepPoint(
        value=float(rec["value"]),
        mean_jobs=tuple(float(v) for v in rec["mean_jobs"]),
        mean_response_time=tuple(float(v) for v in rec["mean_response_time"]),
        iterations=int(rec["iterations"]),
        converged=bool(rec["converged"]),
        error=rec.get("error"),
        metrics=(tuple(tuple(float(v) for v in row) for row in metrics_rows)
                 if metrics_rows is not None else None),
        dist_kinds=(tuple(str(k) for k in dist_kinds)
                    if dist_kinds is not None else None),
    )


def _worker_obs_begin(obs_cfg: tuple | None):
    """Arm per-worker collectors inside a pool process.

    ``obs_cfg`` is ``(parent_trace_path | None, collect_metrics)``.
    The worker writes spans to its own ``<base>.w<pid>`` sibling file
    (merged into the parent trace after the pool joins) and starts
    every point from a clean metrics registry so the per-point
    snapshots it embeds in the trace stay disjoint.
    """
    if obs_cfg is None:
        return None
    base, collect = obs_cfg
    tracer = obs_trace.ensure_worker_tracer(base) if base is not None else None
    if collect:
        obs_metrics.reset()
        obs_metrics.enable()
    return tracer


def _worker_obs_end(obs_cfg: tuple | None, tracer, value: float) -> None:
    """Flush one point's metrics snapshot into the worker trace file."""
    if obs_cfg is None or not obs_cfg[1]:
        return
    snap = obs_metrics.snapshot()
    obs_metrics.reset()
    if tracer is not None and (snap.get("counters") or snap.get("gauges")
                               or snap.get("histograms")):
        tracer.emit({"kind": "metrics", "pid": os.getpid(), "scope": "point",
                     "value": value, **snap})


def _solve_point(v: float, config: SystemConfig, heavy_traffic_only: bool,
                 model_kwargs: dict | None, solve_kwargs: dict | None,
                 raise_errors: bool = False,
                 obs_cfg: tuple | None = None,
                 metrics_sel: tuple[str, ...] | None = None) -> SweepPoint:
    """Solve one grid point; errors become error-points by default.

    Module-level (and closure-free) so it pickles into worker
    processes, where errors must travel back as error-points; the
    serial path passes ``raise_errors=True`` under ``skip_errors=False``
    so the original exception object propagates.  ``obs_cfg`` carries
    the parent's observability state into worker processes (the serial
    path leaves it ``None`` — the parent's collectors are already
    armed).  ``metrics_sel`` asks for per-class distribution metrics
    (quantiles/tails) on top of the means; saturated classes degrade
    to the ``saturated`` marker kind instead of failing the point.
    """
    tracer = _worker_obs_begin(obs_cfg)
    try:
        with span("sweep.point", value=v):
            t0 = time.perf_counter()
            model = GangSchedulingModel(config, **(model_kwargs or {}))
            solved = model.solve(heavy_traffic_only=heavy_traffic_only,
                                 **(solve_kwargs or {}))
            point_metrics = dist_kinds = None
            if metrics_sel:
                from repro.metrics.distributions import metric_values
                with span("sweep.point_metrics", value=v):
                    point_metrics = tuple(
                        metric_values(solved, p, metrics_sel)
                        for p in range(len(solved.classes)))
                    dist_kinds = tuple(
                        solved.distributions(p).kind
                        for p in range(len(solved.classes)))
            return SweepPoint(
                value=v,
                mean_jobs=tuple(c.mean_jobs for c in solved.classes),
                mean_response_time=tuple(c.mean_response_time
                                         for c in solved.classes),
                iterations=solved.iterations,
                converged=solved.converged,
                solve_seconds=time.perf_counter() - t0,
                metrics=point_metrics,
                dist_kinds=dist_kinds,
            )
    except Exception as exc:  # noqa: BLE001 - reported per point
        if raise_errors:
            raise
        return _error_point(v, config.class_names, exc)
    finally:
        _worker_obs_end(obs_cfg, tracer, v)


def _error_point(v: float, names: Sequence[str],
                 exc: Exception) -> SweepPoint:
    return SweepPoint(
        value=v,
        mean_jobs=tuple(float("nan") for _ in names),
        mean_response_time=tuple(float("nan") for _ in names),
        iterations=0, converged=False,
        error=f"{type(exc).__name__}: {exc}",
    )


def _reraise_point_error(err: str):
    """Re-raise a worker-side error in the parent (``skip_errors=False``).

    The original exception object stayed in the worker; rebuild it from
    the journaled ``"TypeName: message"`` form — as the repro error
    class when the name matches one, else a ``RuntimeError`` carrying
    the full string.
    """
    import repro.errors as _errors

    name, _, msg = err.partition(": ")
    exc_type = getattr(_errors, name, None)
    if isinstance(exc_type, type) and issubclass(exc_type, Exception):
        raise exc_type(msg)
    raise RuntimeError(err)


def sweep(parameter: str, values: Sequence[float],
          config_factory: Callable[[float], SystemConfig],
          *, heavy_traffic_only: bool = False,
          model_kwargs: dict | None = None,
          solve_kwargs: dict | None = None,
          skip_errors: bool = True,
          checkpoint: str | os.PathLike | None = None,
          resume: bool = True,
          workers: int | None = None,
          batch: int | None = None,
          metrics: Sequence[str] | None = None) -> SweepResult:
    """Solve the analytic model along a parameter grid.

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
    skip_errors:
        Record unstable/failed points (with the error class and
        message) instead of aborting the sweep.
    checkpoint:
        Path of a JSONL journal.  Every completed point is appended
        durably, so a crash loses at most the points in flight.
    resume:
        With ``checkpoint``, load journaled points and skip their
        solves (default).  ``False`` ignores an existing journal and
        overwrites it.
    batch:
        Solve up to this many adjacent grid points at once through the
        batched lockstep engine (:mod:`repro.workloads.batched`):
        stacked BLAS across points and continuation warm-starts within
        each chunk.  ``None``/``0``/``1`` keeps the per-point path;
        ``workers`` takes precedence (worker processes already amortize
        the per-point overhead the batch engine targets).
    workers:
        Solve points in this many OS processes (``None``/``0``/``1``:
        serially in-process).  Configs are built — and fault-injection
        sites fired — in the parent, in grid order; results are
        journaled as they complete.  Falls back to the serial path when
        worker processes cannot be spawned.
    metrics:
        Metric selectors (see :mod:`repro.metrics.selectors`) to
        evaluate per class at every point, populating
        :attr:`SweepPoint.metrics` / :attr:`SweepPoint.dist_kinds`
        from the solved model's response-time distributions.
        Saturated points degrade to the ``saturated`` marker instead
        of erroring.  Selectors force the per-point engine (the
        batched engine keeps only the R-iterates, not the full
        stationary laws the distributions need).

    Raises
    ------
    CheckpointError
        The checkpoint journal belongs to a different sweep (its
        parameter or class names disagree) or is corrupt beyond its
        final line.
    """
    if len(values) == 0:
        raise ValueError("sweep requires at least one grid value")
    metrics_sel = None
    if metrics is not None and any(m != "mean" for m in metrics):
        metrics_sel = tuple(str(m) for m in metrics)
    journal = SweepJournal(checkpoint) if checkpoint is not None else None
    done: dict[float, SweepPoint] = {}
    #: Raw journal records by value — the batched engine reads its
    #: continuation seeds back from these on resume.
    done_records: dict[float, dict] = {}
    result: SweepResult | None = None
    header_written = False
    if journal is not None:
        if resume and journal.exists():
            journal.repair()
            header, records = journal.load()
            if header is not None or records:
                journal.validate_header(header, parameter=parameter)
                done = {pt.value: pt
                        for pt in map(_point_from_record, records)}
                done_records = {float(rec["value"]): rec for rec in records}
                result = SweepResult(parameter=parameter,
                                     class_names=tuple(header["class_names"]))
                header_written = True
            # An empty journal (crash before the header landed) is a
            # fresh start.
        elif journal.exists():
            journal.path.unlink()
        # Otherwise the header is written lazily, once the first config
        # names the classes.

    # Grid-order pass: resumed points land immediately; the rest get a
    # slot plus a parent-built config (the factory is often a lambda,
    # which would not survive pickling anyway).
    grid = [float(v) for v in values]
    points: list[SweepPoint | None] = []
    pending: list[tuple[int, float, SystemConfig]] = []
    resumed = 0
    for v in grid:
        if v in done:
            points.append(done[v])
            resumed += 1
            continue
        config = config_factory(v)
        names = config.class_names
        if result is None:
            result = SweepResult(parameter=parameter, class_names=names)
        elif journal is not None and names != result.class_names:
            from repro.errors import CheckpointError
            raise CheckpointError(
                f"checkpoint journal {journal.path} belongs to a different "
                f"sweep: class names {list(result.class_names)!r}, "
                f"factory produced {list(names)!r}")
        if journal is not None and not header_written:
            journal.write_header(parameter=parameter,
                                 class_names=list(result.class_names))
            header_written = True
        points.append(None)
        pending.append((len(points) - 1, v, config))

    result.resumed = resumed
    if done:
        gridset = set(grid)
        stale = sum(1 for value in done if value not in gridset)
        if stale:
            result.stale = stale
            warnings.warn(
                f"checkpoint {journal.path} holds {stale} point(s) whose "
                f"value is no longer on the grid; they were ignored",
                stacklevel=2)

    if resumed:
        obs_metrics.inc("sweep.points", resumed, status="resumed")
    if result.stale:
        obs_metrics.inc("sweep.points", result.stale, status="stale")

    def finish(slot: int, point: SweepPoint,
               extra: dict | None = None) -> None:
        if points[slot] is not None:
            return
        points[slot] = point
        obs_metrics.inc("sweep.points",
                    status="ok" if point.error is None else "error")
        if point.error is not None and not skip_errors:
            _reraise_point_error(point.error)
        if journal is not None:
            rec = _point_record(point)
            if extra:
                # Batched-engine continuation seeds ride on the point
                # record; resume hands them back through
                # ``done_records``.
                rec.update(extra)
            journal.append(rec)

    parallel = workers is not None and int(workers) > 1 and len(pending) > 1
    if parallel:
        # Ship the parent's observability state to the workers: spans
        # land in per-worker sibling trace files, merged below.
        tracer = obs_trace.current_tracer()
        obs_cfg = None
        if tracer is not None or obs_metrics.enabled():
            obs_cfg = (os.fspath(tracer.path) if tracer is not None else None,
                       obs_metrics.enabled())
        try:
            _run_parallel(pending, int(workers), heavy_traffic_only,
                          model_kwargs, solve_kwargs, skip_errors, finish,
                          obs_cfg, metrics_sel)
        except OSError:
            # No process support here (restricted sandboxes); the
            # points already journaled above stay journaled, and the
            # serial loop below picks up the unfilled slots.
            parallel = False
        finally:
            if tracer is not None:
                obs_trace.merge_worker_traces(tracer)
    batched = (not parallel and batch is not None and int(batch) > 1
               and pending and metrics_sel is None)
    if batched:
        from repro.workloads.batched import run_batched_pending

        run_batched_pending(
            grid=grid,
            pending=[job for job in pending if points[job[0]] is None],
            batch=int(batch),
            heavy_traffic_only=heavy_traffic_only,
            model_kwargs=model_kwargs,
            solve_kwargs=solve_kwargs,
            skip_errors=skip_errors,
            finish=finish,
            done_records=done_records,
        )
    elif not parallel:
        for slot, v, config in pending:
            if points[slot] is not None:
                continue
            try:
                maybe_fault("sweeps.point", key=v)
                point = _solve_point(v, config, heavy_traffic_only,
                                     model_kwargs, solve_kwargs,
                                     raise_errors=True,
                                     metrics_sel=metrics_sel)
            except Exception as exc:  # noqa: BLE001 - reported per point
                if not skip_errors:
                    raise
                point = _error_point(v, config.class_names, exc)
            finish(slot, point)

    result.points = points
    return result


def sweep_scenario(scenario) -> SweepResult:
    """Run a swept scenario's analytic side through :func:`sweep`.

    ``scenario`` is a :class:`repro.scenario.spec.Scenario` with a
    sweep axis; its engine spec supplies the model/solve kwargs, the
    checkpoint journal and the worker count, so a scenario-driven sweep
    inherits crash safety and parallelism unchanged.  (Duck-typed to
    keep this layer import-free of :mod:`repro.scenario`, which sits
    above it.)
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
        # Policies are frozen dataclasses: they pickle cleanly to the
        # sweep worker processes alongside the rest of the kwargs.
        model_kwargs["policy"] = policy
    out = getattr(scenario, "output", None)
    metrics_sel = (tuple(out.metrics)
                   if out is not None
                   and getattr(out, "wants_distributions", False) else None)
    return sweep(axis.parameter, axis.values, scenario.system.config_for,
                 heavy_traffic_only=heavy_traffic_only,
                 model_kwargs=model_kwargs,
                 solve_kwargs=solve_kwargs,
                 checkpoint=eng.checkpoint,
                 workers=eng.workers,
                 batch=getattr(eng, "batch_points", 0),
                 metrics=metrics_sel)


def _run_parallel(pending, workers: int, heavy_traffic_only: bool,
                  model_kwargs: dict | None, solve_kwargs: dict | None,
                  skip_errors: bool, finish,
                  obs_cfg: tuple | None = None,
                  metrics_sel: tuple[str, ...] | None = None) -> None:
    """Fan the pending points over a process pool.

    Fault-injection sites fire in the parent at submission, in grid
    order; completed points are handed to ``finish`` (which journals
    them) as they arrive, in completion order.  On any abort — a fault,
    ``skip_errors=False``, a SIGINT — pending futures are cancelled and
    the already-completed ones are journaled before re-raising, so a
    killed parallel sweep resumes just like a killed serial one.
    """
    import concurrent.futures as cf

    with cf.ProcessPoolExecutor(max_workers=workers) as pool:
        futures: dict = {}
        try:
            for slot, v, config in pending:
                try:
                    maybe_fault("sweeps.point", key=v)
                except Exception as exc:  # noqa: BLE001 - per point
                    if not skip_errors:
                        raise
                    finish(slot, _error_point(v, config.class_names, exc))
                    continue
                futures[pool.submit(_solve_point, v, config,
                                    heavy_traffic_only, model_kwargs,
                                    solve_kwargs, False, obs_cfg,
                                    metrics_sel)] = slot
            for fut in cf.as_completed(futures):
                finish(futures[fut], fut.result())
        except BaseException:
            # Cancel what hasn't started; wait out (and journal) what
            # has — losing at most the points in flight matches the
            # serial crash guarantee.
            for fut in futures:
                fut.cancel()
            for fut, slot in futures.items():
                if not fut.cancelled():
                    try:
                        finish(slot, fut.result())
                    except Exception:  # noqa: BLE001 - already aborting
                        pass
            raise
