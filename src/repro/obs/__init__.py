"""Unified observability: structured tracing, metrics, run reports.

Zero-dependency (stdlib-only) substrate shared by every solver layer:

``repro.obs.trace``
    Span-based tracing — nested, attributed intervals emitted as
    balanced begin/end JSONL events through one process-global,
    thread-safe collector; worker processes write sibling files merged
    on join.  Also home of :class:`~repro.obs.trace.StageTimings`, the
    accumulator behind ``FixedPointResult.timings``.
``repro.obs.metrics``
    A registry of counters, gauges, and histograms fed by instrumented
    sites across the pipeline (R-solve iterations, backend decisions,
    fallback attempts, GMRES iterations, dense boundary fallbacks,
    fault injections, sweep points...).
``repro.obs.report``
    Trace-file summarization: the per-class/per-stage table, metric
    rollups, per-request timelines, and worker-profile hotspots behind
    the ``repro report`` CLI subcommand.
``repro.obs.prom``
    Prometheus text exposition of a metrics snapshot (the daemon's
    ``GET /metrics``), with the strict parser the tests round-trip
    through.
``repro.obs.log``
    Size-rotated structured JSON-lines event log (``serve --log``),
    request-ID-aware via the trace module's request scope.
``repro.obs.chrome``
    Chrome trace-event export (``repro report --chrome``): any JSONL
    trace rendered as a Perfetto/speedscope-loadable timeline.

Both collectors are **off by default**; every instrumented site then
costs a single global test, holding the disabled-path overhead on the
pipeline bench under 2% (guarded by
``benchmarks/test_bench_obs_overhead.py``).  Turn them on together
with :func:`start` / :func:`stop` (what the CLI's ``--trace`` /
``--metrics`` flags do) or the :func:`session` context manager::

    from repro import obs
    with obs.session(trace_path="run.jsonl"):
        GangSchedulingModel(config).solve()
    summary = obs.summarize_trace("run.jsonl")
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from repro.obs import chrome, log, metrics, prom, trace
from repro.obs.chrome import write_chrome_trace
from repro.obs.metrics import (
    MetricsRegistry,
    histogram_quantile,
    merge_snapshots,
    render_snapshot,
)
from repro.obs.prom import parse_exposition, render_exposition
from repro.obs.report import (
    TraceSummary,
    load_trace,
    render_report,
    render_requests,
    summarize_trace,
)
from repro.obs.trace import (
    StageTimings,
    Tracer,
    current_request_id,
    request_scope,
    span,
    tracing_enabled,
)

__all__ = [
    "metrics",
    "trace",
    "prom",
    "log",
    "chrome",
    "span",
    "start",
    "stop",
    "session",
    "StageTimings",
    "Tracer",
    "MetricsRegistry",
    "TraceSummary",
    "load_trace",
    "summarize_trace",
    "render_report",
    "render_requests",
    "render_snapshot",
    "merge_snapshots",
    "histogram_quantile",
    "render_exposition",
    "parse_exposition",
    "write_chrome_trace",
    "request_scope",
    "current_request_id",
    "tracing_enabled",
]


def start(*, trace_path: str | os.PathLike | None = None,
          collect_metrics: bool = True) -> None:
    """Arm the observability collectors.

    Parameters
    ----------
    trace_path:
        When given, start span tracing into this JSONL file
        (truncating it).
    collect_metrics:
        Reset and enable the metrics registry (default): the session's
        snapshot is embedded in the trace file by :func:`stop`.
    """
    if trace_path is not None:
        trace.start_tracing(trace_path)
    if collect_metrics:
        metrics.reset()
        metrics.enable()


def stop() -> dict:
    """Disarm the collectors; returns the session's metrics snapshot.

    When a trace file is open, the snapshot is appended to it first as
    a ``{"kind": "metrics", ...}`` record so ``repro report`` can roll
    it up alongside any worker-emitted records.
    """
    snap = metrics.snapshot() if metrics.enabled() else {}
    tracer = trace.current_tracer()
    if tracer is not None:
        if snap and (snap.get("counters") or snap.get("gauges")
                     or snap.get("histograms")):
            tracer.emit({"kind": "metrics", "pid": os.getpid(),
                         "scope": "session", **snap})
        trace.stop_tracing()
    metrics.disable()
    return snap


@contextmanager
def session(*, trace_path: str | os.PathLike | None = None,
            collect_metrics: bool = True):
    """Context-managed :func:`start` / :func:`stop` for library use."""
    start(trace_path=trace_path, collect_metrics=collect_metrics)
    try:
        yield
    finally:
        stop()
