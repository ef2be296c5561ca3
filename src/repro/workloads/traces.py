"""Trace-driven simulation: replay a recorded job stream.

Production scheduler studies replay recorded traces.  A
:class:`WorkloadTrace` holds per-class (arrival time, service
requirement) pairs — measured, or drawn from any distribution — and
:class:`TraceDrivenGangSimulation` drives the gang simulator with it,
so a model fitted to measurements can be checked against the
measurements themselves (``examples/fit_from_measurements.py``).
Replaying the *same* trace under different policies gives
common-random-number comparisons with far lower variance than
independent sampling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import SystemConfig
from repro.errors import ValidationError
from repro.sim.gang import GangSimulation
from repro.sim.jobs import Job

__all__ = ["ClassTrace", "WorkloadTrace", "TraceDrivenGangSimulation"]


@dataclass(frozen=True)
class ClassTrace:
    """One class's job stream: parallel arrays of times and demands."""

    arrival_times: np.ndarray
    service_requirements: np.ndarray

    def __post_init__(self):
        at = np.asarray(self.arrival_times, dtype=np.float64)
        sr = np.asarray(self.service_requirements, dtype=np.float64)
        if at.shape != sr.shape or at.ndim != 1:
            raise ValidationError("trace arrays must be 1-D of equal length")
        if at.size and (np.any(np.diff(at) < 0) or at[0] < 0):
            raise ValidationError("arrival times must be non-decreasing, >= 0")
        if np.any(sr <= 0):
            raise ValidationError("service requirements must be positive")
        object.__setattr__(self, "arrival_times", at)
        object.__setattr__(self, "service_requirements", sr)

    def __len__(self) -> int:
        return int(self.arrival_times.size)


@dataclass(frozen=True)
class WorkloadTrace:
    """A full multi-class trace."""

    classes: tuple[ClassTrace, ...]
    horizon: float


class TraceDrivenGangSimulation(GangSimulation):
    """Gang simulation fed by a fixed :class:`WorkloadTrace`.

    The scheduler's own randomness (quantum lengths, overheads) still
    comes from the seeded streams; only the workload is frozen.  Replay
    the same trace under different configurations for common-random-
    number comparisons.
    """

    def __init__(self, config: SystemConfig, trace: WorkloadTrace, *,
                 seed: int | None = None, warmup: float = 0.0):
        if len(trace.classes) != config.num_classes:
            raise ValidationError(
                f"trace has {len(trace.classes)} classes, config "
                f"{config.num_classes}")
        super().__init__(config, seed=seed, warmup=warmup)
        self._trace = trace
        self._cursor = [0] * config.num_classes

    def _start(self) -> None:
        # Replace renewal arrivals by the trace schedule.
        for p, ct in enumerate(self._trace.classes):
            if len(ct):
                self.sim.schedule_at(float(ct.arrival_times[0]),
                                     self._on_trace_arrival, p)
        self.sim.schedule(0.0, self._begin_class_turn, 0)

    def _on_trace_arrival(self, p: int) -> None:
        ct = self._trace.classes[p]
        i = self._cursor[p]
        self._cursor[p] += 1
        now = self.sim.now
        self._job_counter += 1
        job = Job(job_id=self._job_counter, class_id=p, arrival_time=now,
                  service_requirement=float(ct.service_requirements[i]))
        self.stats[p].on_arrival(now)
        if len(self._active[p]) < self.config.partitions(p):
            self._active[p].append(job)
            if self._current_class == p:
                self._start_job(job)
        else:
            self._queue[p].append(job)
        if self._cursor[p] < len(ct):
            self.sim.schedule_at(float(ct.arrival_times[self._cursor[p]]),
                                 self._on_trace_arrival, p)
        if self._parked is not None:
            self._unpark()
