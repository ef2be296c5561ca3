"""Process-global metrics registry: counters, gauges, histograms.

The solver stack is full of numbers that matter for understanding a
run but never reach the caller — R-solver iteration counts on the
*success* path, fallback attempts per method, backend decisions,
GMRES iteration counts, dense-fallback boundary solves, injected
faults, sweep points.  Instrumented call sites feed
them here through the module-level helpers (:func:`inc`,
:func:`observe`, :func:`set_gauge`), which are a single ``bool`` test
when collection is disabled — cheap enough to instrument every site
permanently.

Metric identity is ``name`` plus sorted ``key=value`` labels
(``"rsolve.iterations{method=logreduction}"``), Prometheus-style.
Three instrument kinds:

* **counter** — monotonically increasing float (:func:`inc`);
* **gauge** — last-written value (:func:`set_gauge`);
* **histogram** — running ``count/sum/min/max`` plus fixed log-spaced
  bucket counts (:data:`BUCKET_BOUNDS`), from which
  :func:`histogram_quantile` estimates latency percentiles
  (p50/p95/p99 in reports and the ``/metrics`` exposition).

:func:`snapshot` returns a plain-JSON dict (what
:func:`repro.obs.stop` embeds in the trace file as a ``"metrics"``
record, and what pool workers emit per completed task);
:func:`merge_snapshots` folds many such records into one rollup for
the ``repro report`` subcommand.

The registry is thread-safe (one lock around every mutation) and
deliberately **not** shared across processes: pool workers each
reset, collect, and emit their own snapshot into their worker trace
file, and the report sums the records.

The canonical metric names live in the Observability section of
``docs/architecture.md``.
"""

from __future__ import annotations

import bisect
import threading

__all__ = [
    "BUCKET_BOUNDS",
    "MetricsRegistry",
    "REGISTRY",
    "enable",
    "disable",
    "enabled",
    "inc",
    "observe",
    "set_gauge",
    "snapshot",
    "reset",
    "merge_snapshots",
    "render_snapshot",
    "histogram_quantile",
    "metric_key",
]

#: Inclusive upper bounds of the fixed log-spaced histogram buckets:
#: half-decade spacing from 1e-6 to 1e3 (microseconds to ~17 minutes on
#: the latency scale every ``observe`` site uses).  Observations above
#: the last bound land in an implicit overflow bucket, so every
#: histogram carries ``len(BUCKET_BOUNDS) + 1`` counts.
BUCKET_BOUNDS: tuple[float, ...] = tuple(
    10.0 ** (e / 2.0) for e in range(-12, 7))


def metric_key(name: str, labels: dict | None) -> str:
    """Canonical series key: ``name{k=v,...}`` with sorted labels."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def _copy_hist(h: dict) -> dict:
    """Deep-enough copy of one histogram dict (buckets list included)."""
    out = dict(h)
    if "buckets" in out:
        out["buckets"] = list(out["buckets"])
    return out


class MetricsRegistry:
    """Thread-safe container of counters, gauges, and histograms."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, dict[str, float]] = {}

    def inc(self, name: str, n: float = 1.0, **labels) -> None:
        key = metric_key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + n

    def set_gauge(self, name: str, value: float, **labels) -> None:
        key = metric_key(name, labels)
        with self._lock:
            self._gauges[key] = float(value)

    def observe(self, name: str, value: float, **labels) -> None:
        key = metric_key(name, labels)
        value = float(value)
        with self._lock:
            h = self._histograms.get(key)
            if h is None:
                buckets = [0.0] * (len(BUCKET_BOUNDS) + 1)
                h = self._histograms[key] = {
                    "count": 0.0, "sum": 0.0, "min": value, "max": value,
                    "buckets": buckets}
            h["count"] += 1.0
            h["sum"] += value
            h["min"] = min(h["min"], value)
            h["max"] = max(h["max"], value)
            h["buckets"][bisect.bisect_left(BUCKET_BOUNDS, value)] += 1.0

    def snapshot(self) -> dict:
        """Plain-JSON view: ``{"counters": ..., "gauges": ...,
        "histograms": ...}`` (deep-copied; safe to mutate)."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {k: _copy_hist(v)
                               for k, v in self._histograms.items()},
            }

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def __len__(self) -> int:
        with self._lock:
            return (len(self._counters) + len(self._gauges)
                    + len(self._histograms))


#: The process-global registry every instrumented site feeds.
REGISTRY = MetricsRegistry()

#: Collection switch.  The module-level helpers below test this first;
#: when ``False`` every instrumented site costs one call + one test.
_ENABLED = False


def enable() -> None:
    """Turn metric collection on (idempotent)."""
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    """Turn metric collection off (idempotent; data is kept)."""
    global _ENABLED
    _ENABLED = False


def enabled() -> bool:
    """Whether instrumented sites are currently recording."""
    return _ENABLED


def inc(name: str, n: float = 1.0, **labels) -> None:
    """Increment counter ``name`` (no-op while disabled)."""
    if _ENABLED:
        REGISTRY.inc(name, n, **labels)


def set_gauge(name: str, value: float, **labels) -> None:
    """Set gauge ``name`` (no-op while disabled)."""
    if _ENABLED:
        REGISTRY.set_gauge(name, value, **labels)


def observe(name: str, value: float, **labels) -> None:
    """Record one histogram observation (no-op while disabled)."""
    if _ENABLED:
        REGISTRY.observe(name, value, **labels)


def snapshot() -> dict:
    """Snapshot of the global registry."""
    return REGISTRY.snapshot()


def reset() -> None:
    """Clear the global registry."""
    REGISTRY.reset()


def merge_snapshots(snapshots) -> dict:
    """Fold many snapshots into one rollup.

    Counters add, gauges keep the last value seen, histograms merge
    their ``count/sum/min/max`` and bucket counts.  Used by the trace
    report, where one file may carry the parent's close-time snapshot
    plus one record per completed worker point.  Colliding histogram
    keys whose bucket layouts disagree (one side bucket-less — a
    pre-bucket trace — or a different bound count) merge the summary
    fields and drop the buckets rather than mixing incompatible
    layouts.
    """
    out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
    for snap in snapshots:
        for key, val in (snap.get("counters") or {}).items():
            out["counters"][key] = out["counters"].get(key, 0.0) + val
        for key, val in (snap.get("gauges") or {}).items():
            out["gauges"][key] = val
        for key, h in (snap.get("histograms") or {}).items():
            cur = out["histograms"].get(key)
            if cur is None:
                out["histograms"][key] = _copy_hist(h)
            else:
                cur["count"] += h["count"]
                cur["sum"] += h["sum"]
                cur["min"] = min(cur["min"], h["min"])
                cur["max"] = max(cur["max"], h["max"])
                a, b = cur.get("buckets"), h.get("buckets")
                if a is not None and b is not None and len(a) == len(b):
                    cur["buckets"] = [x + y for x, y in zip(a, b)]
                else:
                    cur.pop("buckets", None)
    return out


def histogram_quantile(hist: dict, q: float) -> float | None:
    """Estimate the ``q``-quantile of one histogram from its buckets.

    Delegates to :func:`repro.metrics.quantiles.bucket_quantile` — the
    Prometheus-style estimator of the repository-wide quantile
    contract: linear interpolation inside the bucket holding the
    target rank, clamped into the exact observed ``[min, max]`` so a
    single-observation histogram reports the observation itself.
    Returns ``None`` for empty or bucket-less (legacy) histograms.
    """
    from repro.metrics.quantiles import bucket_quantile
    buckets = hist.get("buckets")
    if not buckets:
        return None
    return bucket_quantile(buckets, BUCKET_BOUNDS, q,
                           count=float(hist.get("count") or 0.0),
                           lo=float(hist["min"]), hi=float(hist["max"]))


def render_snapshot(snap: dict, *, indent: str = "") -> str:
    """Human-readable text rendering of a snapshot (CLI ``--metrics``)."""
    lines: list[str] = []
    counters = snap.get("counters") or {}
    gauges = snap.get("gauges") or {}
    hists = snap.get("histograms") or {}
    if counters:
        lines.append(f"{indent}counters:")
        for key in sorted(counters):
            lines.append(f"{indent}  {key} = {counters[key]:g}")
    if gauges:
        lines.append(f"{indent}gauges:")
        for key in sorted(gauges):
            lines.append(f"{indent}  {key} = {gauges[key]:g}")
    if hists:
        lines.append(f"{indent}histograms:")
        for key in sorted(hists):
            h = hists[key]
            mean = h["sum"] / h["count"] if h["count"] else 0.0
            line = (f"{indent}  {key}: count={h['count']:g} mean={mean:g} "
                    f"min={h['min']:g} max={h['max']:g}")
            p50 = histogram_quantile(h, 0.50)
            if p50 is not None:
                line += (f" p50={p50:g}"
                         f" p95={histogram_quantile(h, 0.95):g}"
                         f" p99={histogram_quantile(h, 0.99):g}")
            lines.append(line)
    if not lines:
        lines.append(f"{indent}(no metrics recorded)")
    return "\n".join(lines)
