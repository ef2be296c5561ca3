"""Lockstep sweep chunks: a sweep's pending points, solved together.

Every in-process sweep (:func:`repro.workloads.sweeps.sweep`) solves
its grid in chunks of adjacent points (:func:`plan_chunks`).  A chunk's
points advance through the Section 4.3 iteration in lockstep — one
:func:`repro.core.fixed_point.run_lockstep` call — so the solve stage
(:mod:`repro.pipeline.stages`) can stack their drift tests, ``R``
solves and extractions.  Each stacked slice gets the bits of its
single solve, so a point's numbers never depend on its chunk: a resumed
or sharded sweep, or one run at another width, reproduces an
uninterrupted one exactly.  Points converge and drop out of their
chunk individually, and a point that fails fails alone.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time

from repro.core.fixed_point import PointState, run_lockstep
from repro.core.model import GangSchedulingModel
from repro.obs import metrics
from repro.obs.trace import span
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


def run_batched_pending(*, grid, pending, batch: int,
                        heavy_traffic_only: bool,
                        model_kwargs: dict | None,
                        solve_kwargs: dict | None,
                        finish,
                        metrics_sel: tuple[str, ...] | None = None) -> None:
    """Solve a sweep's pending points, ``batch`` adjacent points at a time.

    Parameters mirror :func:`repro.workloads.sweeps.sweep`;
    ``pending`` holds ``(slot, value, config)`` triples, and
    ``finish(slot, point)`` records a completed point.  A point's
    ``solve_seconds`` (and its ``sweep.point.seconds`` observation) is
    an equal share of its chunk's wall time.
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

    def emit(t: _Task, seconds: float) -> None:
        """Turn a finished task into points for all its slots."""
        if t.error is not None:
            point = dataclasses.replace(
                _error_point(t.value, t.config.class_names, t.error),
                solve_seconds=seconds, warm=False)
        else:
            with (span("sweep.point_metrics", value=t.value) if metrics_sel
                  else contextlib.nullcontext()):
                point = solved_point(t.value, t.model._package(t.result),
                                     metrics_sel, solve_seconds=seconds,
                                     warm=False)
        metrics.observe("sweep.point.seconds", seconds)
        for slot, _ in by_value[t.value]:
            finish(slot, point)

    for ci, chunk in enumerate(plan_chunks(grid, batch)):
        # Fire the sweep-level fault site for every value about to be
        # solved, in ascending order, before the chunk solves.
        solvable = []
        for v in chunk:
            if v not in by_value:
                continue
            try:
                maybe_fault("sweeps.point", key=v)
            except Exception as exc:  # noqa: BLE001 - per point
                point = _error_point(v, by_value[v][0][1].class_names, exc)
                for slot, _ in by_value[v]:
                    finish(slot, point)
                continue
            solvable.append(v)
        if not solvable:
            continue

        t0 = time.perf_counter()
        with span("sweep.chunk", index=ci, size=len(solvable)):
            tasks = [make_task(v) for v in solvable]
            run_lockstep(tasks)
        share = (time.perf_counter() - t0) / len(tasks)
        for t in tasks:
            emit(t, share)
