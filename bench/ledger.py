"""Per-layer ledger: timing wrappers around the public functions of each layer.

A traced run installs one wrapper per :data:`TARGETS` entry.  A wrapper
is patched in wherever a caller looks the function up: on the class for
methods, and for module functions on every loaded ``repro`` module whose
global *is* the function (``from x import f`` leaves the caller holding
its own reference, so patching only ``x.f`` would miss it).  Callers
that import lazily, inside a function body, read the patched module
attribute at call time.

Each wrapped call records a span ``(name, start, end, parent)`` in
memory; nothing is written until the run ends.  Some targets also feed
counters (cache hits, warm starts, retries...) from their arguments or
results, so ratios are measured where the work happens.  A target that no
longer exists is listed in ``missing`` and its metrics read zero.

:func:`per_layer_metrics` turns one traced run into the metrics named in
:data:`PER_LAYER`.  Layer names are the repository's module names.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from collections.abc import Callable
from dataclasses import dataclass

__all__ = ["Target", "TARGETS", "PER_LAYER", "Ledger", "span_stats",
           "layer_of", "layer_table", "per_layer_metrics"]


@dataclass(frozen=True)
class Target:
    """One wrapped function.

    ``where`` is ``"package.module:function"`` or
    ``"package.module:Class.method"``.  ``span`` names the recorded span
    (``None`` records no span, only the observer's counters).
    ``observe(ledger, args, kwargs, result)`` runs after a successful
    call; ``before(ledger, args, kwargs) -> (args, kwargs)`` may wrap
    an argument before the call.
    """

    where: str
    span: str | None
    observe: Callable | None = None
    before: Callable | None = None


def _iterations(ledger, args, kwargs, result):
    ledger.counts["core.fixed_point.iterations"] += result.iterations


def _cache_lookup(ledger, args, kwargs, result):
    ledger.counts["pipeline.cache.lookups"] += 1
    ledger.counts["pipeline.cache.hits"] += result is not None


def _warm_rsolve(ledger, args, kwargs, result):
    ledger.counts["qbd.rmatrix.solve_R.warm"] += kwargs.get("R0") is not None


def _retries(ledger, args, kwargs, result):
    ledger.counts["resilience.fallback.retries"] += result[1].fallbacks


def _backend_choice(ledger, args, kwargs, result):
    ledger.counts["kernels.backend.select_backend.calls"] += 1
    ledger.counts["kernels.backend.sparse"] += result == "sparse"


def _stack_size(ledger, args, kwargs, result):
    ledger.counts["kernels.batched.stacked"] += len(args[0])


def _ph_order(ledger, args, kwargs, result):
    ledger.counts["phasetype.distribution.order_sum"] += args[0].order


def _evaluations(ledger, args, kwargs, result):
    ledger.counts["core.optimize.evaluations"] += result.evaluations


def _result_hit(ledger, args, kwargs, result):
    ledger.counts["service.store.result_hits"] += result is not None


def _pool_restarts(ledger, args, kwargs, result):
    # A pool's restart count only grows; keep the latest per pool.
    pool = args[0]
    ledger.gauges[("service.supervisor.restarts", id(pool))] = \
        pool.total_restarts


def _count_warm_points(ledger, args, kwargs):
    finish = kwargs["finish"]

    def counted(slot, point, extra=None):
        ledger.counts["workloads.sweeps.points"] += 1
        ledger.counts["workloads.sweeps.warm"] += bool(point.warm)
        return finish(slot, point, extra)

    return args, dict(kwargs, finish=counted)


#: Every wrapped function, grouped by layer.
TARGETS = (
    # Solver layers: the fixed point and its per-class stages.
    Target("repro.core.fixed_point:run_fixed_point",
           "core.fixed_point.run_fixed_point", observe=_iterations),
    Target("repro.pipeline.stages:assemble_class",
           "pipeline.stages.assemble_class"),
    Target("repro.pipeline.stages:solve_class", "pipeline.stages.solve_class"),
    Target("repro.pipeline.extract:extract_effective_quantum",
           "pipeline.extract.extract_effective_quantum"),
    Target("repro.pipeline.cache:ArtifactCache.get", None,
           observe=_cache_lookup),
    Target("repro.qbd.rmatrix:solve_R", "qbd.rmatrix.solve_R",
           observe=_warm_rsolve),
    Target("repro.resilience.fallback:resilient_solve_R",
           "resilience.fallback.resilient_solve_R", observe=_retries),
    Target("repro.qbd.boundary:solve_boundary", "qbd.boundary.solve_boundary"),
    Target("repro.core.vacation:heavy_traffic_vacation",
           "core.vacation.heavy_traffic_vacation"),
    Target("repro.core.vacation:fixed_point_vacation",
           "core.vacation.fixed_point_vacation"),
    Target("repro.core.vacation:reduce_order", "core.vacation.reduce_order"),
    Target("repro.core.measures:compute_measures",
           "core.measures.compute_measures"),
    Target("repro.kernels.backend:select_backend", None,
           observe=_backend_choice),
    # Batched sweep engine.
    Target("repro.workloads.batched:run_batched_pending",
           "workloads.batched.run_batched_pending", before=_count_warm_points),
    Target("repro.kernels.batched:batched_solve_R",
           "kernels.batched.batched_solve_R", observe=_stack_size),
    Target("repro.kernels.batched:batched_boundary_solve",
           "kernels.batched.batched_boundary_solve"),
    # Distribution construction and evaluation.
    Target("repro.metrics.distributions:class_distributions",
           "metrics.distributions.class_distributions"),
    Target("repro.core.response:response_time_distribution",
           "core.response.response_time_distribution"),
    Target("repro.core.response:waiting_time_distribution",
           "core.response.waiting_time_distribution"),
    Target("repro.utils.validation:check_subgenerator",
           "utils.validation.check_subgenerator"),
    Target("repro.phasetype.distribution:PhaseType.quantile",
           "phasetype.distribution.quantile"),
    Target("repro.phasetype.distribution:PhaseType.cdf",
           "phasetype.distribution.cdf", observe=_ph_order),
    Target("repro.phasetype.distribution:PhaseType.sf",
           "phasetype.distribution.cdf", observe=_ph_order),
    Target("repro.core.optimize:optimize_quantum_for_slo",
           "core.optimize.optimize_quantum_for_slo", observe=_evaluations),
    # Service: wire decode, hashing, store I/O, worker pool, handler.
    Target("repro.service.protocol:decode_request",
           "service.protocol.decode_request"),
    Target("repro.scenario.hashing:scenario_key", "scenario.hashing.key"),
    Target("repro.scenario.hashing:point_key", "scenario.hashing.key"),
    Target("repro.service.store:ResultStore.__init__", "service.store.open"),
    Target("repro.service.store:ResultStore.get_result",
           "service.store.get_result", observe=_result_hit),
    Target("repro.service.store:ResultStore.get_point",
           "service.store.get_point"),
    Target("repro.service.store:ResultStore.put_point",
           "service.store.put_point"),
    Target("repro.service.store:ResultStore.put_result",
           "service.store.put_result"),
    Target("repro.service.supervisor:SupervisedPool.run_tasks",
           "service.supervisor.run_tasks", observe=_pool_restarts),
    Target("repro.service.daemon:ScenarioService.handle",
           "service.daemon.handle"),
)

#: Per-layer metrics and their units.  A ``<span>.calls`` /
#: ``<span>.self_s`` / ``<span>.busy_s`` name reads the span's call
#: count, self time (duration minus the time its child spans cover) or
#: total duration; every other name is derived in
#: :func:`per_layer_metrics`.  Each ratio is listed next to its base.
PER_LAYER = {
    "core.fixed_point.run_fixed_point.calls": "count",
    "core.fixed_point.iterations": "count",
    "pipeline.stages.assemble_class.self_s": "s",
    "pipeline.stages.solve_class.self_s": "s",
    "pipeline.extract.extract_effective_quantum.self_s": "s",
    "pipeline.cache.lookups": "count",
    "pipeline.cache.hit_ratio": "ratio",
    "qbd.rmatrix.solve_R.calls": "count",
    "qbd.rmatrix.solve_R.self_s": "s",
    "qbd.rmatrix.solve_R.warm_ratio": "ratio",
    "resilience.fallback.resilient_solve_R.calls": "count",
    "resilience.fallback.retry_ratio": "ratio",
    "qbd.boundary.solve_boundary.self_s": "s",
    "core.vacation.reduce_order.self_s": "s",
    "core.measures.compute_measures.self_s": "s",
    "kernels.backend.select_backend.calls": "count",
    "kernels.backend.sparse_ratio": "ratio",
    "workloads.batched.run_batched_pending.busy_s": "s",
    "kernels.batched.batched_solve_R.calls": "count",
    "kernels.batched.batched_solve_R.self_s": "s",
    "kernels.batched.batched_solve_R.mean_stack": "count",
    "kernels.batched.batched_boundary_solve.self_s": "s",
    "workloads.sweeps.points": "count",
    "workloads.sweeps.warm_ratio": "ratio",
    "metrics.distributions.class_distributions.calls": "count",
    "metrics.distributions.class_distributions.self_s": "s",
    "core.response.response_time_distribution.self_s": "s",
    "core.response.waiting_time_distribution.calls": "count",
    "core.response.waiting_time_distribution.self_s": "s",
    "utils.validation.check_subgenerator.self_s": "s",
    "phasetype.distribution.quantile.calls": "count",
    "phasetype.distribution.quantile.self_s": "s",
    "phasetype.distribution.cdf.calls": "count",
    "phasetype.distribution.cdf.self_s": "s",
    "phasetype.distribution.cdf_per_quantile": "ratio",
    "phasetype.distribution.mean_order": "count",
    "core.optimize.evaluations": "count",
    "service.protocol.decode_request.self_s": "s",
    "scenario.hashing.key.self_s": "s",
    "service.store.get_result.calls": "count",
    "service.store.get_result.self_s": "s",
    "service.store.result_hit_ratio": "ratio",
    "service.store.get_point.self_s": "s",
    "service.store.put_point.self_s": "s",
    "service.store.put_result.self_s": "s",
    "service.store.open_s": "s",
    "service.supervisor.run_tasks.busy_s": "s",
    "service.supervisor.restarts": "count",
    "service.daemon.handle.self_s": "s",
    "trace.traced_wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.solver_share": "ratio",
    "trace.distribution_share": "ratio",
}

#: Layers whose self time makes up the paper's solve (the ``figures``
#: workload) and the distribution work (the ``percentiles`` workload).
SOLVER_LAYERS = ("pipeline", "qbd", "core.vacation", "core.measures")
DISTRIBUTION_LAYERS = ("metrics", "core.response", "phasetype")

_SPAN_FIELDS = {"calls": 0, "busy_s": 1, "self_s": 2}


def _resolve(where: str):
    """``(owner, attribute, original)`` for a target, or raise."""
    module_name, _, path = where.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    original = (owner.__dict__[attr] if isinstance(owner, type)
                else getattr(owner, attr))
    return owner, attr, original


class Ledger:
    """Spans and counters of one traced run."""

    def __init__(self, targets=TARGETS, *, prefix: str = "repro"):
        self.targets = targets
        #: Modules whose globals are scanned for imported references.
        self.prefix = prefix
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        #: ``(name id, start, end, parent index or -1)`` per wrapped call.
        self.spans: list[tuple[int, float, float, int] | None] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        #: ``(name, object id) -> latest value``; summed per name.
        self.gauges: dict[tuple[str, int], float] = {}
        self.missing: list[str] = []
        self.active = False
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Patch every target in and start recording."""
        for target in self.targets:
            try:
                owner, attr, original = _resolve(target.where)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(target.where)
                continue
            wrapper = self._wrap(original, target)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", None) or ""
                if name != self.prefix and \
                        not name.startswith(self.prefix + "."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        self.active = True

    def stop(self) -> None:
        """Stop recording; wrappers stay in place but pass through."""
        self.active = False

    def uninstall(self) -> None:
        self.active = False
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, target: Target):
        ledger = self
        name_id = None if target.span is None else self._name_id(target.span)
        before, observe = target.before, target.observe

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not ledger.active:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(ledger, args, kwargs)
            if name_id is None:
                result = fn(*args, **kwargs)
            else:
                spans, stack = ledger.spans, ledger._stack
                index = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(index)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    spans[index] = (name_id, start, end, parent)
            if observe is not None:
                observe(ledger, args, kwargs, result)
            return result

        return wrapper

    def to_dict(self, origin: float = 0.0) -> dict:
        """JSON form; span times are seconds after ``origin``."""
        gauges: Counter = Counter()
        for (name, _), value in self.gauges.items():
            gauges[name] += value
        return {
            "names": list(self.names),
            "spans": [[n, start - origin, end - origin, parent]
                      for n, start, end, parent in self.spans],
            "counts": dict(self.counts),
            "gauges": dict(gauges),
            "missing": list(self.missing),
        }


def _covered(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def span_stats(trace: dict) -> dict[str, list[float]]:
    """``name -> [calls, busy seconds, self seconds]`` over ``trace``'s spans."""
    spans = trace["spans"]
    children: dict[int, list[int]] = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    stats: dict[str, list[float]] = {}
    for i, (n, start, end, _) in enumerate(spans):
        kids = [(spans[c][1], spans[c][2]) for c in children.get(i, ())]
        row = stats.setdefault(trace["names"][n], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += (end - start) - _covered(start, end, kids)
    return stats


def layer_of(span_name: str) -> str:
    """Layer of a span: its top-level module, or ``core.<module>``."""
    parts = span_name.split(".")
    return ".".join(parts[:2]) if parts[0] == "core" else parts[0]


def layer_table(stats: dict[str, list[float]], wall: float) -> dict:
    """Self time per layer and its share of ``wall``."""
    layers: Counter = Counter()
    for name, (_, _, self_s) in stats.items():
        layers[layer_of(name)] += self_s
    return {layer: {"self_s": s, "share": s / wall if wall > 0 else 0.0}
            for layer, s in sorted(layers.items())}


def _ratio(num: float, base: float) -> float:
    return num / base if base else 0.0


def per_layer_metrics(trace: dict, traced_wall: float,
                      untraced_wall: float) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced run.

    ``trace`` is :meth:`Ledger.to_dict`; ``traced_wall`` and
    ``untraced_wall`` are the same workload's repeat wall times with and
    without the ledger installed.
    """
    stats = span_stats(trace)
    counts = Counter(trace["counts"])
    counts.update(trace["gauges"])

    def field(span: str, name: str) -> float:
        row = stats.get(span)
        return row[_SPAN_FIELDS[name]] if row is not None else 0

    layers = layer_table(stats, traced_wall)

    def share(group) -> float:
        return sum(layers[g]["share"] for g in group if g in layers)

    derived = {
        "core.fixed_point.iterations":
            counts["core.fixed_point.iterations"],
        "pipeline.cache.lookups": counts["pipeline.cache.lookups"],
        "pipeline.cache.hit_ratio": _ratio(counts["pipeline.cache.hits"],
                                           counts["pipeline.cache.lookups"]),
        "qbd.rmatrix.solve_R.warm_ratio": _ratio(
            counts["qbd.rmatrix.solve_R.warm"],
            field("qbd.rmatrix.solve_R", "calls")),
        "resilience.fallback.retry_ratio": _ratio(
            counts["resilience.fallback.retries"],
            field("resilience.fallback.resilient_solve_R", "calls")),
        "kernels.backend.select_backend.calls":
            counts["kernels.backend.select_backend.calls"],
        "kernels.backend.sparse_ratio": _ratio(
            counts["kernels.backend.sparse"],
            counts["kernels.backend.select_backend.calls"]),
        "kernels.batched.batched_solve_R.mean_stack": _ratio(
            counts["kernels.batched.stacked"],
            field("kernels.batched.batched_solve_R", "calls")),
        "workloads.sweeps.points": counts["workloads.sweeps.points"],
        "workloads.sweeps.warm_ratio": _ratio(
            counts["workloads.sweeps.warm"],
            counts["workloads.sweeps.points"]),
        "phasetype.distribution.cdf_per_quantile": _ratio(
            _cdf_under_quantile(trace),
            field("phasetype.distribution.quantile", "calls")),
        "phasetype.distribution.mean_order": _ratio(
            counts["phasetype.distribution.order_sum"],
            field("phasetype.distribution.cdf", "calls")),
        "core.optimize.evaluations": counts["core.optimize.evaluations"],
        "service.store.result_hit_ratio": _ratio(
            counts["service.store.result_hits"],
            field("service.store.get_result", "calls")),
        "service.store.open_s": field("service.store.open", "busy_s"),
        "service.supervisor.restarts":
            counts["service.supervisor.restarts"],
        "trace.traced_wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_ratio": _ratio(traced_wall, untraced_wall),
        "trace.solver_share": share(SOLVER_LAYERS),
        "trace.distribution_share": share(DISTRIBUTION_LAYERS),
    }
    out = {}
    for metric in PER_LAYER:
        if metric in derived:
            out[metric] = float(derived[metric])
        else:
            span, _, name = metric.rpartition(".")
            out[metric] = float(field(span, name))
    return out


def _cdf_under_quantile(trace: dict) -> int:
    """CDF/SF evaluations made inside a quantile search."""
    names = trace["names"]
    if "phasetype.distribution.quantile" not in names:
        return 0
    quantile = names.index("phasetype.distribution.quantile")
    cdf = (names.index("phasetype.distribution.cdf")
           if "phasetype.distribution.cdf" in names else -1)
    spans = trace["spans"]
    total = 0
    for n, _, _, parent in spans:
        if n != cdf:
            continue
        while parent >= 0 and spans[parent][0] != quantile:
            parent = spans[parent][3]
        total += parent >= 0
    return total
