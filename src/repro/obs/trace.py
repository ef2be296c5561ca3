"""Span-based structured tracing with JSONL output.

One process-global :class:`Tracer` (armed with :func:`start_tracing`,
or the higher-level :func:`repro.obs.session`) collects *spans* —
named, nested, attributed intervals — from every instrumented layer of
the solve pipeline and appends them to a JSONL trace file as balanced
begin/end event pairs.  When no tracer is armed, :func:`span` returns
a shared no-op context manager: the disabled path is one global load
and one ``is None`` test, cheap enough to leave the instrumentation in
every hot path permanently.

Trace file schema (one JSON object per line)
--------------------------------------------
``{"kind": "trace-header", "version": 1, "pid": ..., "epoch": ...,
"mono": ...}``
    First record of every file.  ``epoch``/``mono`` anchor the
    monotonic span timestamps to wall-clock time.
``{"kind": "B", "name": ..., "ts": ..., "pid": ..., "tid": ...,
"sid": ..., "parent": ..., "depth": ..., "attrs": {...}}``
    Span begin.  ``ts`` is ``time.monotonic()``; ``sid`` is unique per
    tracer, ``parent`` is the enclosing span's sid (``None`` at the
    top level of a thread).
``{"kind": "E", "name": ..., "ts": ..., "pid": ..., "tid": ...,
"sid": ..., "wall": ..., "cpu": ..., "attrs": {...}}``
    Span end.  ``wall`` is ``perf_counter`` seconds, ``cpu`` is
    ``thread_time`` seconds spent inside the span on this thread.
``{"kind": "metrics", ...}``
    A metrics-registry snapshot (see :mod:`repro.obs.metrics`),
    written by :func:`repro.obs.stop` and by pool workers after each
    completed task.

Within one thread the events are balanced (every ``B`` has a matching
``E``, properly nested) and ``ts`` is non-decreasing; the property
suite in ``tests/obs`` holds the collector to both invariants.

Stage accounting
----------------
:class:`StageTimings` (the per-run wall-clock accumulator behind
``FixedPointResult.timings``) lives here too: pipeline stages run
under ``span(..., timings=..., stage=...)``, which feeds the
accumulator from the *same* ``perf_counter`` window the trace event
records, so a trace report's per-stage totals and the result's
``timings`` view agree by construction.  With tracing disabled the
span degrades to exactly the old two-``perf_counter``-calls timing
path.  A stacked stage serves several (point, class) jobs with one
span: it carries a ``jobs`` attribute of ``[point, klass]`` pairs
instead of ``klass`` and feeds each job an equal share of its wall
time (:class:`SharedTimings`), and the report splits it the same way.

Worker processes
----------------
Pool workers cannot share the parent's file handle.  They append
to a sibling file ``<trace>.w<pid>`` via :func:`ensure_worker_tracer`;
after the pool joins, the parent folds every worker file into the main
trace with :func:`merge_worker_traces` and deletes them.  A worker
SIGKILLed mid-write leaves a stale (possibly torn) ``.w`` file behind;
the next :func:`start_tracing` on the same base path salvages its
valid lines and removes it, so crashes never leak sidecars forever.

Request scoping
---------------
The service tags every span with the request that caused it:
:func:`request_scope` sets a :mod:`contextvars` request ID for the
duration of one request, and both ``B`` and ``E`` events carry it as
``"req"``.  The ID rides into spawn workers as a plain task argument
(the daemon appends it to each task tuple), so after
:func:`merge_worker_traces` one request renders as one end-to-end
timeline across daemon and worker pids.
"""

from __future__ import annotations

import contextvars
import glob
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path

__all__ = [
    "TRACE_VERSION",
    "SharedTimings",
    "StageTimings",
    "Tracer",
    "span",
    "start_tracing",
    "stop_tracing",
    "tracing",
    "tracing_enabled",
    "current_tracer",
    "current_request_id",
    "set_request_id",
    "request_scope",
    "ensure_worker_tracer",
    "merge_worker_traces",
    "worker_trace_paths",
]

#: Trace file format version, written in the header record.
TRACE_VERSION = 1

#: The request ID tagged onto spans emitted inside a request scope.
_REQUEST_ID: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "repro_request_id", default=None)


def current_request_id() -> str | None:
    """The request ID of the active :func:`request_scope`, if any."""
    return _REQUEST_ID.get()


def set_request_id(rid: str | None) -> None:
    """Set (or clear, with ``None``) the ambient request ID.

    Prefer :func:`request_scope`; this unscoped setter exists for
    worker processes whose task loop cannot wrap the whole body in a
    ``with`` block per request.
    """
    _REQUEST_ID.set(rid)


@contextmanager
def request_scope(rid: str):
    """Tag every span (and structured-log event) in the body with
    request ID ``rid``; restores the previous ID on exit."""
    token = _REQUEST_ID.set(rid)
    try:
        yield rid
    finally:
        _REQUEST_ID.reset(token)


class StageTimings:
    """Wall-clock seconds accumulated per pipeline stage.

    The view behind ``FixedPointResult.timings`` /
    ``SolvedModel.timings``.  Stages feed it through
    :func:`span`; :meth:`timed` remains for callers that want the
    accumulation without a trace event.
    """

    def __init__(self):
        self._seconds: dict[str, float] = {}

    @contextmanager
    def timed(self, stage: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(stage, time.perf_counter() - start)

    def add(self, stage: str, seconds: float) -> None:
        self._seconds[stage] = self._seconds.get(stage, 0.0) + seconds

    def as_dict(self) -> dict[str, float]:
        return dict(self._seconds)


class SharedTimings:
    """Feeds an equal share of each span to several :class:`StageTimings`.

    One accumulator per job a stacked span serves (a point with two
    jobs in the stack appears twice), so the points' timings still sum
    to the span's wall time.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: list[StageTimings]):
        self.parts = parts

    def add(self, stage: str, seconds: float) -> None:
        share = seconds / len(self.parts)
        for timings in self.parts:
            timings.add(stage, share)


class Tracer:
    """Thread-safe JSONL span collector bound to one output file.

    Spans nest per thread (a thread-local stack supplies ``parent`` and
    ``depth``); writes are serialized by a lock and the header record
    is emitted on first open.  ``mode="a"`` re-opens an existing file
    without a second header (the worker-file case).
    """

    def __init__(self, path: str | os.PathLike, *, mode: str = "w"):
        self.path = Path(path)
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._sids = itertools.count(1)
        self.events = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fresh = mode == "w" or not self.path.exists() \
            or self.path.stat().st_size == 0
        self._fh = open(self.path, mode, encoding="utf-8")
        if fresh:
            self._emit({"kind": "trace-header", "version": TRACE_VERSION,
                        "pid": self.pid, "epoch": time.time(),
                        "mono": time.monotonic()})

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _emit(self, obj: dict) -> None:
        line = json.dumps(obj, separators=(",", ":"))
        with self._lock:
            self._fh.write(line + "\n")
            self._fh.flush()
            self.events += 1

    def begin(self, name: str, attrs: dict | None) -> int:
        stack = self._stack()
        sid = next(self._sids)
        event = {"kind": "B", "name": name, "ts": time.monotonic(),
                 "pid": self.pid, "tid": threading.get_ident(), "sid": sid,
                 "parent": stack[-1] if stack else None,
                 "depth": len(stack)}
        rid = _REQUEST_ID.get()
        if rid is not None:
            event["req"] = rid
        if attrs:
            event["attrs"] = attrs
        stack.append(sid)
        self._emit(event)
        return sid

    def end(self, sid: int, name: str, wall: float, cpu: float,
            attrs: dict | None) -> None:
        stack = self._stack()
        if stack and stack[-1] == sid:
            stack.pop()
        event = {"kind": "E", "name": name, "ts": time.monotonic(),
                 "pid": self.pid, "tid": threading.get_ident(), "sid": sid,
                 "wall": wall, "cpu": cpu}
        rid = _REQUEST_ID.get()
        if rid is not None:
            event["req"] = rid
        if attrs:
            event["attrs"] = attrs
        self._emit(event)

    def emit(self, obj: dict) -> None:
        """Append one raw record (e.g. a metrics snapshot)."""
        self._emit(obj)

    def absorb(self, path: str | os.PathLike) -> int:
        """Append every valid record of another trace file; returns the
        count.

        Used to fold worker trace files into the parent's.  Header
        records travel along (the report keys events by ``pid``), blank
        lines are skipped, and lines that do not parse as JSON — the
        torn tail a SIGKILLed worker leaves mid-write — are dropped
        rather than corrupting the merged trace.
        """
        n = 0
        with open(path, encoding="utf-8") as src:
            with self._lock:
                for line in src:
                    stripped = line.strip()
                    if not stripped:
                        continue
                    try:
                        json.loads(stripped)
                    except ValueError:
                        continue        # torn tail from a killed writer
                    self._fh.write(stripped + "\n")
                    n += 1
                self._fh.flush()
                self.events += n
        return n

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.close()


#: The process-global tracer (``None``: tracing disabled).
_TRACER: Tracer | None = None


class _NullSpan:
    """Shared do-nothing span for the disabled path."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class _TimedSpan:
    """Accumulator-only span: tracing disabled, a stage wants timing."""

    __slots__ = ("timings", "stage", "t0")

    def __init__(self, timings: StageTimings, stage: str):
        self.timings = timings
        self.stage = stage

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.timings.add(self.stage, time.perf_counter() - self.t0)
        return False


class _TracedSpan:
    """Full span: emits begin/end events, optionally feeds a stage
    accumulator from the same clock window."""

    __slots__ = ("tracer", "name", "attrs", "timings", "stage",
                 "sid", "t0", "cpu0")

    def __init__(self, tracer: Tracer, name: str, attrs: dict | None,
                 timings: StageTimings | None, stage: str | None):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.timings = timings
        self.stage = stage

    def __enter__(self):
        self.sid = self.tracer.begin(self.name, self.attrs)
        self.cpu0 = time.thread_time()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        wall = time.perf_counter() - self.t0
        cpu = time.thread_time() - self.cpu0
        if self.timings is not None:
            self.timings.add(self.stage or self.name, wall)
        self.tracer.end(self.sid, self.name, wall, cpu, self.attrs)
        return False


def span(name: str, *, timings: StageTimings | None = None,
         stage: str | None = None, **attrs):
    """A span context manager for ``name``.

    Parameters
    ----------
    name:
        Span name (see the taxonomy in ``docs/architecture.md``; stage
        spans are ``"stage.<stage>"``).
    timings, stage:
        When given, the span's wall time is also accumulated into
        ``timings`` under ``stage`` (defaulting to ``name``) — the
        bridge between tracing and ``FixedPointResult.timings``.  With
        tracing disabled this degrades to the bare accumulation.
    **attrs:
        Structured attributes recorded on both events (``klass=p``,
        ``value=v``...).  Values must be JSON-serializable.

    With tracing disabled and no ``timings``, returns a shared no-op
    object — the guard is one global load.
    """
    tracer = _TRACER
    if tracer is None:
        if timings is None:
            return _NULL
        return _TimedSpan(timings, stage or name)
    return _TracedSpan(tracer, name, attrs or None, timings, stage)


def tracing_enabled() -> bool:
    """Whether a process-global tracer is armed."""
    return _TRACER is not None


def current_tracer() -> Tracer | None:
    """The armed tracer, if any."""
    return _TRACER


def start_tracing(path: str | os.PathLike) -> Tracer:
    """Arm the process-global tracer writing to ``path`` (truncates).

    Stale ``<path>.w*`` sidecars left by SIGKILLed workers of an
    earlier run are salvaged into the fresh trace (valid lines kept,
    torn tails dropped) and removed; a sidecar that cannot even be
    read is renamed to ``<sidecar>.quarantine`` for inspection instead
    of being silently leaked or destroyed.
    """
    global _TRACER
    if _TRACER is not None:
        stop_tracing()
    stale = worker_trace_paths(path)
    _TRACER = Tracer(path)
    for wpath in stale:
        try:
            _TRACER.absorb(wpath)
            wpath.unlink()
        except OSError:
            try:
                os.replace(wpath, f"{wpath}.quarantine")
            except OSError:
                pass
    return _TRACER


def stop_tracing() -> None:
    """Close and disarm the process-global tracer (no-op when off)."""
    global _TRACER
    if _TRACER is not None:
        _TRACER.close()
        _TRACER = None


@contextmanager
def tracing(path: str | os.PathLike):
    """Context-managed :func:`start_tracing` / :func:`stop_tracing`."""
    tracer = start_tracing(path)
    try:
        yield tracer
    finally:
        stop_tracing()


# ---------------------------------------------------------------------------
# Worker-process support (parallel sweeps).

def _worker_path(base: str | os.PathLike) -> Path:
    return Path(f"{os.fspath(base)}.w{os.getpid()}")


def worker_trace_paths(base: str | os.PathLike) -> list[Path]:
    """Existing worker trace files for main-trace path ``base``."""
    return [Path(p) for p in sorted(glob.glob(f"{os.fspath(base)}.w*"))]


def ensure_worker_tracer(base: str | os.PathLike) -> Tracer:
    """Arm (or return) this worker process's tracer.

    ``base`` is the *parent's* trace path; the worker appends to
    ``<base>.w<pid>``.  A tracer inherited through ``fork`` (same
    global, wrong pid) is discarded — never closed, the file handle
    belongs to the parent — before the worker's own file is opened.
    A worker serving many points keeps one file open across all of
    them (``mode="a"``).
    """
    global _TRACER
    if _TRACER is not None and _TRACER.pid != os.getpid():
        _TRACER = None  # forked copy of the parent's tracer: not ours
    if _TRACER is None:
        _TRACER = Tracer(_worker_path(base), mode="a")
    return _TRACER


def merge_worker_traces(tracer: Tracer | None = None) -> int:
    """Fold every ``<trace>.w*`` file into the main trace; delete them.

    Called by the sweep driver after its worker pool joins.  Returns
    the number of records absorbed.
    """
    tracer = tracer if tracer is not None else _TRACER
    if tracer is None:
        return 0
    n = 0
    for path in worker_trace_paths(tracer.path):
        if path == tracer.path:
            continue
        n += tracer.absorb(path)
        path.unlink()
    return n
