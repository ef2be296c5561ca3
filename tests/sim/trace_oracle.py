"""Schedule tracing: record and render what the simulated machine did.

A :class:`ScheduleTrace` attached to a :class:`~repro.sim.gang.GangSimulation`
records every scheduling epoch — quantum starts/ends, skips, early
switches, overheads — as typed events.  Tests use it as an oracle for
the operational measures the steady-state numbers imply (realized
quantum lengths, per-class share of wall-clock time); no product path
records a trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.core.config import SystemConfig
from repro.errors import ValidationError
from repro.sim.gang import GangSimulation

__all__ = ["TraceEventType", "TraceEvent", "ScheduleTrace", "TracingGangSimulation"]


class TraceEventType(Enum):
    """Kinds of scheduling epochs."""

    QUANTUM_START = "quantum_start"
    QUANTUM_EXPIRY = "quantum_expiry"
    EARLY_SWITCH = "early_switch"
    SKIP = "skip"
    PARK = "park"
    UNPARK = "unpark"


@dataclass(frozen=True)
class TraceEvent:
    """One scheduling epoch."""

    time: float
    kind: TraceEventType
    class_id: int


class ScheduleTrace:
    """Ordered record of scheduling epochs with derived statistics."""

    def __init__(self, num_classes: int):
        self.num_classes = num_classes
        self.events: list[TraceEvent] = []

    def record(self, time: float, kind: TraceEventType, class_id: int) -> None:
        self.events.append(TraceEvent(time, kind, class_id))

    # -- derived statistics ----------------------------------------------

    def quantum_durations(self, class_id: int) -> np.ndarray:
        """Realized durations of class ``class_id``'s quanta (skips excluded)."""
        out = []
        start = None
        for ev in self.events:
            if ev.class_id != class_id:
                continue
            if ev.kind is TraceEventType.QUANTUM_START:
                start = ev.time
            elif ev.kind in (TraceEventType.QUANTUM_EXPIRY,
                             TraceEventType.EARLY_SWITCH) and start is not None:
                out.append(ev.time - start)
                start = None
        return np.asarray(out)

    def cycle_lengths(self) -> np.ndarray:
        """Realized timeplexing cycle lengths (class-0 epoch to epoch).

        A cycle is measured between consecutive class-0 *opportunities*
        (quantum start or skip), matching the paper's definition of the
        timeplexing cycle as the interval between successive class-0
        time slices.
        """
        epochs = [ev.time for ev in self.events
                  if ev.class_id == 0 and ev.kind in
                  (TraceEventType.QUANTUM_START, TraceEventType.SKIP)]
        return np.diff(np.asarray(epochs))

    def busy_share(self, class_id: int, horizon: float) -> float:
        """Fraction of wall-clock time the class held the processors."""
        if horizon <= 0:
            raise ValidationError(f"horizon must be positive, got {horizon}")
        return float(self.quantum_durations(class_id).sum()) / horizon

    def counts(self) -> dict[TraceEventType, int]:
        out = {k: 0 for k in TraceEventType}
        for ev in self.events:
            out[ev.kind] += 1
        return out

    # -- rendering ---------------------------------------------------------

    def gantt(self, *, start: float = 0.0, end: float | None = None,
              width: int = 100) -> str:
        """Text Gantt chart: one row per class, ``#`` where it runs.

        Only quanta wholly or partly inside ``[start, end]`` appear;
        resolution is ``(end - start) / width``.
        """
        if end is None:
            end = self.events[-1].time if self.events else start + 1.0
        if end <= start:
            raise ValidationError("end must exceed start")
        scale = width / (end - start)
        rows = [[" "] * width for _ in range(self.num_classes)]
        open_start: dict[int, float] = {}
        for ev in self.events:
            if ev.kind is TraceEventType.QUANTUM_START:
                open_start[ev.class_id] = ev.time
            elif ev.kind in (TraceEventType.QUANTUM_EXPIRY,
                             TraceEventType.EARLY_SWITCH):
                s = open_start.pop(ev.class_id, None)
                if s is None:
                    continue
                a = max(s, start)
                b = min(ev.time, end)
                if b <= a:
                    continue
                i0 = int((a - start) * scale)
                i1 = max(i0 + 1, int((b - start) * scale))
                for i in range(i0, min(i1, width)):
                    rows[ev.class_id][i] = "#"
        lines = [f"class{p} |{''.join(row)}|"
                 for p, row in enumerate(rows)]
        lines.append(f"        t=[{start:g}, {end:g}]")
        return "\n".join(lines)


class TracingGangSimulation(GangSimulation):
    """A :class:`GangSimulation` that records a :class:`ScheduleTrace`.

    Note: tracing records one event per scheduling epoch; on long runs
    that is substantial memory — use for inspection windows, not for
    steady-state estimation.
    """

    def __init__(self, config: SystemConfig, *, seed: int | None = None,
                 warmup: float = 0.0):
        super().__init__(config, seed=seed, warmup=warmup)
        self.trace = ScheduleTrace(config.num_classes)

    def _begin_class_turn(self, p: int) -> None:
        had_jobs = bool(self._active[p])
        was_parked = self._parked
        super()._begin_class_turn(p)
        if had_jobs:
            self.trace.record(self.sim.now, TraceEventType.QUANTUM_START, p)
        elif self._parked is not None and was_parked is None:
            self.trace.record(self.sim.now, TraceEventType.PARK, p)
        else:
            self.trace.record(self.sim.now, TraceEventType.SKIP, p)

    def _unpark(self) -> None:
        self.trace.record(self.sim.now, TraceEventType.UNPARK,
                          self._parked if self._parked is not None else -1)
        super()._unpark()

    def _on_quantum_expiry(self, p: int) -> None:
        self.trace.record(self.sim.now, TraceEventType.QUANTUM_EXPIRY, p)
        super()._on_quantum_expiry(p)

    def _end_quantum(self, p: int, *, preempt: bool = False) -> None:
        if not preempt:
            self.trace.record(self.sim.now, TraceEventType.EARLY_SWITCH, p)
        super()._end_quantum(p, preempt=preempt)
