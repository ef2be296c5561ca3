"""Summarize a trace file into a human-readable run report.

``repro report out.jsonl`` (and :func:`summarize_trace` behind it)
reduces the raw event stream written by :mod:`repro.obs.trace` to:

* a **per-class, per-stage table** of wall-clock seconds — every
  ``stage.*`` span grouped by its ``klass`` attribute (spans with no
  class, e.g. ``recombine``, land in the ``-`` column); a stacked span
  tagged with ``jobs`` is split evenly over the classes of its
  ``[point, klass]`` pairs.  The stage totals reproduce the summed
  ``FixedPointResult.timings`` because both are fed from the same
  clock window;
* **span rollups** — count / total wall / total CPU per span name
  (``sweep.chunk``, ``fixed_point``...);
* a **metrics rollup** — every ``"metrics"`` record in the file
  (the close-time snapshot plus one per worker task) merged with
  :func:`repro.obs.metrics.merge_snapshots`: backend decisions,
  fallback attempts, R-solve iterations, GMRES iterations, dense
  boundary fallbacks, fault injections, sweep points (counters
  outside these rollups print under "other metrics");
* a **per-request rollup** — spans tagged with a service request ID
  (``"req"``; see :func:`repro.obs.trace.request_scope`) grouped per
  request with span counts, wall time, and the set of pids that worked
  on it, rendered by ``repro report --requests``;
* a **profile rollup** — ``"profile"`` records written by
  ``serve --profile-workers`` summed by function into a top-N hotspot
  table.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.metrics import merge_snapshots, render_snapshot

__all__ = ["TraceSummary", "load_trace", "summarize_trace",
           "render_report", "render_requests"]

#: Prefix of the spans that form the per-class/per-stage table.
STAGE_PREFIX = "stage."


@dataclass
class TraceSummary:
    """Aggregated view of one trace file."""

    path: str
    events: int = 0
    #: Distinct pids that wrote into the file (1 + worker count).
    pids: set = field(default_factory=set)
    #: ``(stage, klass)`` -> accumulated wall seconds; ``klass`` is the
    #: span's ``klass`` attribute or ``None``.
    stage_seconds: dict = field(default_factory=dict)
    #: ``(stage, klass)`` -> span count (a stacked span counts once
    #: per job it served).
    stage_counts: dict = field(default_factory=dict)
    #: span name -> ``{"count": n, "wall": s, "cpu": s}`` (all spans,
    #: including the stage ones).
    spans: dict = field(default_factory=dict)
    #: Merged metrics rollup (see :func:`repro.obs.metrics.merge_snapshots`).
    metrics: dict = field(default_factory=dict)
    #: ``B`` events with no matching ``E`` (crash mid-span).
    unclosed: int = 0
    #: request id -> ``{"spans", "wall", "pids", "first_ts", "last_ts",
    #: "names"}`` for spans tagged with a service request ID.
    requests: dict = field(default_factory=dict)
    #: ``"file:line:function"`` -> summed ``{"calls", "tottime",
    #: "cumtime"}`` from ``"profile"`` records (``--profile-workers``).
    profile: dict = field(default_factory=dict)

    @property
    def stages(self) -> list[str]:
        """Stage names in first-seen order."""
        seen: list[str] = []
        for stage, _ in self.stage_seconds:
            if stage not in seen:
                seen.append(stage)
        return seen

    @property
    def classes(self) -> list:
        """Class labels in sorted order (``None`` last)."""
        ks = {k for _, k in self.stage_seconds}
        return sorted((k for k in ks if k is not None),
                      key=lambda k: (not isinstance(k, int), k)) \
            + ([None] if None in ks else [])

    def stage_total(self, stage: str) -> float:
        """Total wall seconds of one stage across every class."""
        return sum(v for (s, _), v in self.stage_seconds.items()
                   if s == stage)

    def stage_totals(self) -> dict[str, float]:
        """``stage -> total wall seconds`` — comparable to
        ``FixedPointResult.timings``."""
        return {stage: self.stage_total(stage) for stage in self.stages}


def load_trace(path: str | os.PathLike) -> list[dict]:
    """Parse a trace JSONL file into a list of event dicts.

    A corrupt *trailing* line (the writer was killed mid-write — the
    same torn tail the result store repairs) is silently dropped;
    corruption anywhere else is skipped with a ``UserWarning`` naming
    the line, so a partially damaged trace still reports rather than
    refusing outright.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    events: list[dict] = []
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            if i == len(lines) - 1:
                break               # torn tail: expected after a crash
            warnings.warn(
                f"corrupt trace {path}: skipping unparseable line {i + 1}",
                stacklevel=2)
    return events


def summarize_trace(path: str | os.PathLike) -> TraceSummary:
    """Aggregate one trace file into a :class:`TraceSummary`."""
    events = load_trace(path)
    summary = TraceSummary(path=os.fspath(path), events=len(events))
    snapshots: list[dict] = []
    open_spans: dict[tuple, dict] = {}
    for ev in events:
        kind = ev.get("kind")
        if "pid" in ev:
            summary.pids.add(ev["pid"])
        if kind == "B":
            open_spans[(ev.get("pid"), ev.get("sid"))] = ev
        elif kind == "E":
            begun = open_spans.pop((ev.get("pid"), ev.get("sid")), None)
            name = ev.get("name", "?")
            wall = float(ev.get("wall", 0.0))
            cpu = float(ev.get("cpu", 0.0))
            agg = summary.spans.setdefault(
                name, {"count": 0, "wall": 0.0, "cpu": 0.0})
            agg["count"] += 1
            agg["wall"] += wall
            agg["cpu"] += cpu
            rid = ev.get("req") or (begun or {}).get("req")
            if rid is not None:
                req = summary.requests.setdefault(
                    rid, {"spans": 0, "wall": 0.0, "pids": set(),
                          "first_ts": None, "last_ts": None, "names": {}})
                req["spans"] += 1
                req["wall"] += wall
                if "pid" in ev:
                    req["pids"].add(ev["pid"])
                ts_b = float(begun["ts"]) if begun else float(ev["ts"]) - wall
                ts_e = float(ev["ts"])
                req["first_ts"] = (ts_b if req["first_ts"] is None
                                   else min(req["first_ts"], ts_b))
                req["last_ts"] = (ts_e if req["last_ts"] is None
                                  else max(req["last_ts"], ts_e))
                req["names"][name] = req["names"].get(name, 0) + 1
            if name.startswith(STAGE_PREFIX):
                stage = name[len(STAGE_PREFIX):]
                attrs = ev.get("attrs") or {}
                jobs = attrs.get("jobs")
                shares = ([(klass, wall / len(jobs)) for _, klass in jobs]
                          if jobs else [(attrs.get("klass"), wall)])
                for klass, seconds in shares:
                    key = (stage, klass)
                    summary.stage_seconds[key] = (
                        summary.stage_seconds.get(key, 0.0) + seconds)
                    summary.stage_counts[key] = (
                        summary.stage_counts.get(key, 0) + 1)
        elif kind == "metrics":
            snapshots.append(ev)
        elif kind == "profile":
            for hot in ev.get("hotspots") or []:
                func = hot.get("func", "?")
                agg = summary.profile.setdefault(
                    func, {"calls": 0, "tottime": 0.0, "cumtime": 0.0})
                agg["calls"] += int(hot.get("calls") or 0)
                agg["tottime"] += float(hot.get("tottime") or 0.0)
                agg["cumtime"] += float(hot.get("cumtime") or 0.0)
    summary.unclosed = len(open_spans)
    summary.metrics = merge_snapshots(snapshots)
    return summary


def _rollup_section(summary: TraceSummary, title: str,
                    prefixes: tuple[str, ...]) -> list[str]:
    """Render the metric series matching ``prefixes`` under a heading."""
    snap = summary.metrics
    sub = {
        "counters": {k: v for k, v in (snap.get("counters") or {}).items()
                     if k.startswith(prefixes)},
        "gauges": {k: v for k, v in (snap.get("gauges") or {}).items()
                   if k.startswith(prefixes)},
        "histograms": {k: v
                       for k, v in (snap.get("histograms") or {}).items()
                       if k.startswith(prefixes)},
    }
    if not (sub["counters"] or sub["gauges"] or sub["histograms"]):
        return []
    return [f"{title}:", render_snapshot(sub, indent="  "), ""]


def render_requests(summary: TraceSummary) -> str:
    """Per-request table of ``repro report --requests``.

    One row per service request ID found in the trace: elapsed
    wall-clock between its first span begin and last span end, summed
    span wall time, span count, and the pids that worked on it — the
    end-to-end view of one daemon request across its spawn workers.
    """
    if not summary.requests:
        return "(no request-tagged spans in trace)\n"
    lines = [f"{'request':<24}{'elapsed_s':>10}{'span_s':>10}"
             f"{'spans':>7}{'pids':>6}  processes"]
    lines.append("-" * len(lines[0]))

    def order(item):
        req = item[1]
        return req["first_ts"] if req["first_ts"] is not None else 0.0

    for rid, req in sorted(summary.requests.items(), key=order):
        elapsed = ((req["last_ts"] - req["first_ts"])
                   if req["first_ts"] is not None else 0.0)
        pids = ",".join(str(p) for p in sorted(req["pids"]))
        lines.append(f"{rid:<24}{elapsed:>10.4f}{req['wall']:>10.4f}"
                     f"{req['spans']:>7}{len(req['pids']):>6}  {pids}")
    return "\n".join(lines) + "\n"


def _profile_lines(summary: TraceSummary, top: int = 15) -> list[str]:
    if not summary.profile:
        return []
    lines = ["worker profile hotspots (by tottime):",
             f"  {'tottime_s':>10}{'cumtime_s':>10}{'calls':>9}  function"]
    ranked = sorted(summary.profile.items(),
                    key=lambda kv: kv[1]["tottime"], reverse=True)
    for func, agg in ranked[:top]:
        lines.append(f"  {agg['tottime']:>10.4f}{agg['cumtime']:>10.4f}"
                     f"{agg['calls']:>9}  {func}")
    if len(ranked) > top:
        lines.append(f"  ... {len(ranked) - top} more function(s)")
    lines.append("")
    return lines


def render_report(summary: TraceSummary) -> str:
    """The full text report of ``repro report``."""
    lines = [f"trace: {summary.path}",
             f"  {summary.events} event(s) from {len(summary.pids)} "
             f"process(es)"
             + (f", {summary.unclosed} unclosed span(s)"
                if summary.unclosed else ""),
             ""]

    classes = summary.classes
    stages = summary.stages
    if stages:
        width = 12
        headers = ["stage"] + [
            ("-" if k is None else f"class{k}") for k in classes] + ["total"]
        lines.append("per-class, per-stage wall seconds:")
        lines.append("".join(f"{h:>{width}}" for h in headers))
        lines.append("-" * (width * len(headers)))
        for stage in stages:
            row = [stage]
            for k in classes:
                v = summary.stage_seconds.get((stage, k))
                row.append("" if v is None else f"{v:.4f}")
            row.append(f"{summary.stage_total(stage):.4f}")
            lines.append("".join(f"{c:>{width}}" for c in row))
        total = sum(summary.stage_total(stage) for stage in stages)
        lines.append("".join(
            f"{c:>{width}}"
            for c in ["total"] + [""] * len(classes) + [f"{total:.4f}"]))
        lines.append("")

    other = {n: agg for n, agg in summary.spans.items()
             if not n.startswith(STAGE_PREFIX)}
    if other:
        lines.append("spans:")
        for name in sorted(other):
            agg = other[name]
            lines.append(f"  {name}: count={agg['count']} "
                         f"wall={agg['wall']:.4f}s cpu={agg['cpu']:.4f}s")
        lines.append("")

    if summary.requests:
        lines.append(f"requests: {len(summary.requests)} traced "
                     "(see `repro report --requests` for the table)")
        lines.append("")
    lines += _profile_lines(summary)
    lines += _rollup_section(summary, "backend", ("backend.",))
    lines += _rollup_section(
        summary, "solver", ("rsolve.", "fallback.", "gmres.", "boundary.",
                            "fixed_point."))
    lines += _rollup_section(
        summary, "resilience", ("faults.", "sweep."))
    remaining_prefixes = ("backend.", "rsolve.", "fallback.", "gmres.",
                          "boundary.", "fixed_point.", "faults.",
                          "sweep.")
    snap = summary.metrics
    leftovers = {
        "counters": {k: v for k, v in (snap.get("counters") or {}).items()
                     if not k.startswith(remaining_prefixes)},
        "gauges": {k: v for k, v in (snap.get("gauges") or {}).items()
                   if not k.startswith(remaining_prefixes)},
        "histograms": {k: v for k, v in (snap.get("histograms") or {}).items()
                       if not k.startswith(remaining_prefixes)},
    }
    if leftovers["counters"] or leftovers["gauges"] or leftovers["histograms"]:
        lines.append("other metrics:")
        lines.append(render_snapshot(leftovers, indent="  "))
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
