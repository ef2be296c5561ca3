"""Lockstep batched sweep engine: many grid points, stacked BLAS.

:func:`repro.workloads.sweeps.sweep` solves grid points one at a time;
profiling shows the per-point cost is dominated by Python call
overhead around small dense BLAS calls — exactly the workload shape
that batching fixes.  This engine advances *all pending points of a
sweep chunk through the same fixed-point iteration simultaneously*:

* The iteration itself is :func:`repro.core.fixed_point.run_lockstep`,
  the same driver a single solve runs (bootstrap, per-class
  saturation, Aitken windows, identical convergence tests), so a
  batched point's trajectory is the serial trajectory.
* This module supplies the driver's stacked :data:`STACKED` stage
  set: the drift tests, warm Newton refinements and logarithmic
  reductions of one lockstep iteration are gathered across points,
  grouped by matrix shape, and dispatched as ``(njobs, m, m)`` stacked
  kernels (:mod:`repro.kernels.batched`).  Each class then finishes
  through the per-point boundary stage,
  :func:`repro.pipeline.stages.finish_class`, and effective-quantum
  extraction runs :func:`repro.pipeline.extract.extract_effective_quanta`,
  the same stacked function a single solve calls at n = 1, once per
  state-space group.  Points converge and drop out of the batch
  individually; any per-slice failure falls back to the serial
  resilience chain for just that point.

Every stacked stage gives a slice the bits of its per-point twin, so a
batched point equals its per-point solve exactly.  Chunks
(:func:`plan_chunks`) only decide which points share a stack; every
point starts cold, so a resumed or sharded sweep reproduces an
uninterrupted one.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro.core.fixed_point import PointState, StageSet, run_lockstep
from repro.core.model import GangSchedulingModel
from repro.errors import UnstableSystemError
from repro.kernels import to_dense
from repro.kernels import batched as bk
from repro.kernels.backend import select_backend
from repro.obs import metrics
from repro.obs.trace import span
from repro.phasetype import PhaseType
from repro.pipeline import stages
from repro.pipeline.extract import extract_effective_quanta
from repro.qbd.stability import DriftReport, drift
from repro.resilience.faults import maybe_fault

__all__ = ["plan_chunks", "run_batched_pending"]


def plan_chunks(values, batch: int) -> list[list[float]]:
    """The chunks of a grid: which points share a stack.

    Chunks partition the *sorted unique* values into runs of ``batch``
    adjacent points.  The anchoring is positional, so the chunk layout
    of a grid never depends on which points are already solved.
    """
    order = sorted({float(v) for v in values})
    batch = max(1, int(batch))
    return [order[i:i + batch] for i in range(0, len(order), batch)]


class _Task(PointState):
    """A sweep grid point in the lockstep driver."""

    def __init__(self, value: float, model: GangSchedulingModel, opts):
        super().__init__(model.config, opts)
        self.value = value
        self.model = model


class _Job:
    """One (task, class) solve inside a lockstep iteration."""

    __slots__ = ("task", "p", "art", "report", "R", "done")

    def __init__(self, task: _Task, p: int):
        self.task = task
        self.p = p
        self.art = task.ctx.classes[p]
        self.report = None
        self.R = None
        self.done = False


def _solve_all_batched(tasks: list[_Task]) -> None:
    """Stacked twin of :func:`repro.pipeline.stages.solve_points`.

    Assembles every (task, class) QBD, runs the drift tests and ``R``
    solves grouped by shape as stacked kernels, then finishes each
    class with the per-point boundary solve.  Per-class
    ``UnstableSystemError`` marks the class saturated (exactly the
    serial guard); any other per-task exception fails that task only.
    """
    if not tasks:
        return
    jobs: list[_Job] = []
    for t in tasks:
        try:
            for p in range(t.L):
                stages.assemble_class(t.ctx, p, t.vacations[p])
                jobs.append(_Job(t, p))
        except Exception as exc:  # noqa: BLE001 - per-task isolation
            t.fail(exc)
    jobs = [j for j in jobs if not j.task.finished]

    # Fault sites fire per (task, class) in deterministic order, with
    # the serial semantics: an UnstableSystemError saturates the class,
    # anything else fails the point.
    for j in jobs:
        if j.task.finished:
            continue
        try:
            maybe_fault("fixed_point.class_solve", key=j.p)
            maybe_fault("qbd.solve")
        except UnstableSystemError:
            _saturate(j)
        except Exception as exc:  # noqa: BLE001 - per-task isolation
            j.task.fail(exc)
    jobs = [j for j in jobs if not j.task.finished and not j.done]

    _stage_stability(tasks, jobs)
    jobs = [j for j in jobs if not j.task.finished and not j.done]
    _stage_rsolve(tasks, jobs)
    jobs = [j for j in jobs if not j.task.finished and not j.done]
    _stage_boundary(jobs)

    for t in tasks:
        if not t.finished:
            arts = t.ctx.classes
            t.state = ([a.space for a in arts], [a.process for a in arts],
                       [a.solution for a in arts],
                       [a.saturated for a in arts])


def _saturate(j: _Job) -> None:
    j.done = True
    j.art.saturated = True
    j.art.solution = None


def _charge(tasks: list[_Task], stage: str, seconds: float) -> None:
    """Split a batched stage's wall time across its live tasks."""
    live = [t for t in tasks if not t.finished]
    if not live:
        return
    share = seconds / len(live)
    for t in live:
        t.ctx.timings.add(stage, share)


def _dense_blocks(j: _Job):
    p = j.art.process
    return (to_dense(p.A0), to_dense(p.A1), to_dense(p.A2))


def _stage_stability(tasks: list[_Task], jobs: list[_Job]) -> None:
    t0 = time.perf_counter()
    groups: dict[int, list[_Job]] = {}
    for j in jobs:
        groups.setdefault(j.art.process.phase_dim, []).append(j)
    for group in groups.values():
        blocks = [_dense_blocks(j) for j in group]
        A0 = bk.stack_blocks([b[0] for b in blocks])
        A1 = bk.stack_blocks([b[1] for b in blocks])
        A2 = bk.stack_blocks([b[2] for b in blocks])
        up, down, y, ok = bk.batched_drift(A0, A1, A2)
        for i, j in enumerate(group):
            if not ok[i]:
                # Reducible chain (or numerical trouble): the serial
                # path owns the proper error.
                try:
                    j.report = drift(*blocks[i])
                except Exception as exc:  # noqa: BLE001 - per-task
                    j.task.fail(exc)
                    continue
            else:
                j.report = DriftReport(up=float(up[i]), down=float(down[i]),
                                       phase_stationary=y[i])
            if not j.report.stable:
                _saturate(j)
    _charge(tasks, "stability", time.perf_counter() - t0)


def _stage_rsolve(tasks: list[_Task], jobs: list[_Job]) -> None:
    """Cold solves are batched; warm solves follow the serial refine.

    A job with a warm ``R`` from the previous fixed-point iteration is
    what the serial path hands to its Newton refinement — whose route
    (dense Kronecker solve vs matrix-free GMRES) depends on the backend
    policy.  Replicating that per job keeps the batched trajectory on
    the serial one bit for bit; near saturation the output is sensitive
    enough that even a ``1e-12`` difference in a converged ``R`` shows
    up at ``1e-8`` in the response times.  Cold solves (the first
    iterations) run the stacked logarithmic reduction, which mirrors
    the serial cold recurrence exactly.
    """
    t0 = time.perf_counter()
    groups: dict[int, list[_Job]] = {}
    serial: list[_Job] = []
    for j in jobs:
        opts = j.task.opts
        if opts.rmatrix_method != "logreduction":
            serial.append(j)
            continue
        d = j.art.process.phase_dim
        prev = j.art.R
        if prev is not None and (prev.shape != (d, d)
                                 or not np.all(np.isfinite(prev))):
            prev = None  # serial solve_R silently discards such seeds
        if prev is not None and select_backend(opts.backend,
                                               d * d) == "sparse":
            # Serial refines this seed matrix-free (GMRES); there is no
            # bitwise batched twin, so the serial path keeps the bits.
            serial.append(j)
            continue
        groups.setdefault(d, []).append((j, prev))
    for group in groups.values():
        blocks = [_dense_blocks(j) for j, _ in group]
        A0 = bk.stack_blocks([b[0] for b in blocks])
        A1 = bk.stack_blocks([b[1] for b in blocks])
        A2 = bk.stack_blocks([b[2] for b in blocks])
        R0 = np.zeros_like(A1)
        seeded = np.zeros(len(group), dtype=bool)
        for i, (j, prev) in enumerate(group):
            if prev is not None:
                R0[i] = prev
                seeded[i] = True
        R, refined, ok = bk.batched_solve_R(A0, A1, A2, R0=R0, seeded=seeded)
        n_ref = int((ok & refined).sum())
        n_cold = int((ok & ~refined).sum())
        if n_ref:
            metrics.inc("rsolve.solves", n_ref, method="logreduction",
                        refined=True, batched=True)
        if n_cold:
            metrics.inc("rsolve.solves", n_cold, method="logreduction",
                        refined=False, batched=True)
        for i, (j, _) in enumerate(group):
            if ok[i]:
                j.R = R[i]
            else:
                serial.append(j)
    for j in serial:
        try:
            j.R, _ = stages.solve_rmatrix(j.art.process, j.task.opts,
                                          j.art.R)
        except UnstableSystemError:
            _saturate(j)
        except Exception as exc:  # noqa: BLE001 - per-task isolation
            j.task.fail(exc)
    _charge(tasks, "rsolve", time.perf_counter() - t0)


def _stage_boundary(jobs: list[_Job]) -> None:
    """Finish each class through the per-point boundary stage."""
    for j in jobs:
        if j.task.finished:
            continue
        try:
            stages.finish_class(j.task.ctx, j.p, j.report, j.R, None)
        except UnstableSystemError:
            _saturate(j)
        except Exception as exc:  # noqa: BLE001 - per-task isolation
            j.task.fail(exc)
        else:
            j.art.saturated = False


def _batched_extract(tasks: list[_Task]):
    """Stacked twin of :func:`repro.pipeline.stages.extract_points`.

    Groups the stable classes of all tasks by state space and extracts
    each group with one
    :func:`~repro.pipeline.extract.extract_effective_quanta` call.  A
    group that raises is extracted again one class at a time, so only
    the failing task fails.

    Returns the driver's ``raw(task, p)`` lookup over the extracted
    quanta.
    """
    t0 = time.perf_counter()
    raws: dict[tuple[int, int], PhaseType] = {}
    groups: dict = {}
    for t in tasks:
        saturated = t.state[3]
        for p in range(t.L):
            if not saturated[p]:
                groups.setdefault(t.ctx.classes[p].space, []).append((t, p))
    for space, group in groups.items():
        try:
            _extract(space, group, raws)
        except Exception:  # noqa: BLE001 - isolate the failing task
            for t, p in group:
                if t.finished:
                    continue
                try:
                    _extract(space, [(t, p)], raws)
                except Exception as exc:  # noqa: BLE001 - per-task
                    t.fail(exc)
    _charge(tasks, "extract", time.perf_counter() - t0)
    return lambda t, p: raws[(id(t), p)]


def _extract(space, group: list, raws: dict) -> None:
    """One extraction call over ``group``'s ``(task, p)`` classes.

    The tasks of a sweep chunk share their options, so the first task's
    truncation settings serve the whole group.
    """
    opts = group[0][0].opts
    arts = [task.ctx.classes[q] for task, q in group]
    quanta = extract_effective_quanta(
        space, [(a.process, a.solution, a.vacation) for a in arts],
        truncation_mass=opts.truncation_mass,
        max_levels=opts.max_truncation_levels)
    for (task, q), quantum in zip(group, quanta):
        raws[(id(task), q)] = quantum


#: The driver's stacked stage set.
STACKED = StageSet(_solve_all_batched, _batched_extract)


def run_batched_pending(*, grid, pending, batch: int,
                        heavy_traffic_only: bool,
                        model_kwargs: dict | None,
                        solve_kwargs: dict | None,
                        skip_errors: bool,
                        finish) -> None:
    """Solve a sweep's pending points through the batched engine.

    Parameters mirror the serial loop of
    :func:`repro.workloads.sweeps.sweep`; ``finish(slot, point)``
    records a completed point.
    """
    from repro.workloads.sweeps import _error_point, solved_point

    model_kwargs = dict(model_kwargs or {})
    solve_kwargs = dict(solve_kwargs or {})
    max_iterations = int(solve_kwargs.get("max_iterations", 200))
    tol = float(solve_kwargs.get("tol", 1e-5))

    by_value: dict[float, list[tuple[int, object]]] = {}
    for slot, v, config in pending:
        by_value.setdefault(float(v), []).append((slot, config))

    def make_task(v: float) -> _Task:
        model = GangSchedulingModel(by_value[v][0][1], **model_kwargs)
        opts = model._options(max_iterations, tol, heavy_traffic_only)
        return _Task(v, model, opts)

    def emit(t: _Task) -> BaseException | None:
        """Turn a finished task into points for all its slots."""
        if t.error is not None:
            if not skip_errors:
                return t.error
            point = dataclasses.replace(
                _error_point(t.value, t.config.class_names, t.error),
                solve_seconds=t.elapsed, warm=False)
        else:
            point = solved_point(t.value, t.model._package(t.result),
                                 solve_seconds=t.elapsed, warm=False)
        metrics.observe("sweep.point.seconds", t.elapsed)
        for slot, _ in by_value[t.value]:
            finish(slot, point)
        return None

    for ci, chunk in enumerate(plan_chunks(grid, batch)):
        todo = [v for v in chunk if v in by_value]
        if not todo:
            continue

        # Fire the sweep-level fault site for every value about to be
        # solved, in ascending order (the serial driver's ordering).
        solvable = []
        for v in todo:
            try:
                maybe_fault("sweeps.point", key=v)
            except Exception as exc:  # noqa: BLE001 - per point
                if not skip_errors:
                    raise
                point = _error_point(v, by_value[v][0][1].class_names, exc)
                for slot, _ in by_value[v]:
                    finish(slot, point)
                continue
            solvable.append(v)
        if not solvable:
            continue

        with span("sweep.chunk", index=ci, size=len(solvable)):
            tasks = [make_task(v) for v in solvable]
            run_lockstep(tasks, STACKED)
        for t in tasks:
            abort = emit(t)
            if abort is not None:
                raise abort
