"""The four workloads, run inside one fresh child process per repeat.

Each workload has three phases:

``setup()``
    What a user pays before the first answer: imports, building the
    preset scenarios, and for ``service`` opening the daemon plus one
    throw-away request that spawns its worker.  Counted in ``setup_s``.
``repeat()``
    The timed work.  Returns ``(label, seconds)`` per user-visible
    operation (a scenario run, an SLO search, a request).
``check()``
    Untimed correctness checks against ``bench/reference`` (and, for
    ``service``, against the service's own cold replies and an
    in-process solve).  Returns ``(label, message)`` per failure.

The harness only calls public APIs of the ``repro`` package.  Functions
that the traced run wraps are looked up at call time (``module.f``), so
the wrappers installed between ``setup()`` and ``repeat()`` see them.
"""

from __future__ import annotations

import json
import math
import pathlib
import time

from bench import traffic

__all__ = ["WORKLOADS", "REFERENCE_DIR"]

REFERENCE_DIR = pathlib.Path(__file__).resolve().parent / "reference"

#: The paper's Figures 2-5 at their paper-resolution grid.
FIGURES = (2, 3, 4, 5)
GRID = "full"
#: Chunk width of the batched sweep engine in ``figures-batched``.
BATCH_POINTS = 8
#: Percentile sweep and SLO search of ``percentiles`` (Figure 2's system).
SWEEP_QUANTA = (0.5, 1.0, 2.0, 3.0)
SWEEP_METRICS = ("mean", "p50", "p99", "tail@5")
SLO_TARGET = "tail@10<=0.05"
SLO_BOUNDS = (0.25, 6.0)
SLO_TOL = 0.02

#: Tolerances of the correctness gate (relative; see ``bench/README.md``).
FIGURES_RTOL = 1e-12
BATCHED_TOL = 1e-8
PERCENTILE_RTOL = 1e-9


def _close(a: float, b: float, rel: float, abs_: float = 0.0) -> bool:
    if a == b:                       # covers equal infinities
        return True
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        return False
    return abs(a - b) <= max(rel * abs(b), abs_)


def _load_reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text())


def _timed(label: str, fn, ops: list):
    t0 = time.perf_counter()
    out = fn()
    ops.append((label, time.perf_counter() - t0))
    return out


class Workload:
    """Defaults shared by the workloads."""

    #: Untimed operations ``check()`` performs on top of the repeat's.
    extra_checks = 0
    #: Workload-specific views of the operations, printed and recorded
    #: next to the end-to-end metrics: ``metric -> (labels, percentile)``.
    detail: dict = {}

    def __init__(self, seed: int, tmp: pathlib.Path):
        pass

    def close(self) -> None:
        pass


class Figures(Workload):
    """``run()`` of the 7 preset scenarios behind ``repro figure 2..5``
    (82 grid points), serially, means only, per-point path."""

    batch_points = 0
    #: Correctness gate: rendered tables byte-identical, ``N_p`` within
    #: ``rtol`` relative (or ``atol`` absolute).
    check_table = True
    rtol, atol = FIGURES_RTOL, 0.0

    def setup(self) -> None:
        from repro.scenario import figure_scenarios

        self.figures = {n: figure_scenarios(n, grid=GRID) for n in FIGURES}
        if self.batch_points:
            self.figures = {n: [s.with_engine(batch_points=self.batch_points)
                                for s in scenarios]
                            for n, scenarios in self.figures.items()}

    def repeat(self) -> list:
        from repro import scenario

        # One operation per figure: what ``repro figure N`` waits for
        # (Figure 5 is four scenarios, one per focus class).
        ops: list = []
        self.results = []       # (operation label, RunResult)
        for n, scenarios in self.figures.items():
            label = f"figure {n}"
            results = _timed(label, lambda scenarios=scenarios: [
                scenario.run(s) for s in scenarios], ops)
            self.results += [(label, r) for r in results]
        return ops

    def reference(self) -> dict:
        return {r.scenario.name: {
                    "table": r.to_table().render(),
                    "mean_jobs": [list(pt.mean_jobs) for pt in r.points]}
                for _, r in self.results}

    def check(self) -> list:
        ref = _load_reference("figures")
        failures = []
        for label, r in self.results:
            name = r.scenario.name
            want = ref.get(name)
            if want is None:
                failures.append((label, f"{name}: no reference"))
                continue
            errors = [pt.error for pt in r.points if pt.error is not None]
            if errors:
                failures.append((label, f"{name}: error points {errors[:2]}"))
            failures += [(label, f"{name}: {msg}")
                         for msg in self._compare(r, want)]
        return failures

    def _compare(self, result, want) -> list:
        out = []
        if self.check_table and result.to_table().render() != want["table"]:
            out.append("to_table() text differs from the reference")
        got = [list(pt.mean_jobs) for pt in result.points]
        if len(got) != len(want["mean_jobs"]):
            return out + ["point count differs from the reference"]
        for i, (row, ref_row) in enumerate(zip(got, want["mean_jobs"])):
            for p, (a, b) in enumerate(zip(row, ref_row)):
                if not _close(a, b, self.rtol, self.atol):
                    out.append(f"point {i} N_{p} = {a!r}, reference {b!r}")
        return out


class FiguresBatched(Figures):
    """The same 82 points through the batched sweep engine, checked
    against the per-point engine's reference."""

    batch_points = BATCH_POINTS
    check_table = False
    rtol = atol = BATCHED_TOL


class Percentiles(Workload):
    """A percentile sweep and an SLO search on Figure 2's system."""

    detail = {"sweep_s": (("sweep",), 50), "slo_search_s": (("slo",), 50)}

    def setup(self) -> None:
        from repro.core import optimize  # noqa: F401 - import cost is set-up
        from repro.scenario import get_scenario

        base = get_scenario("fig2")
        self.factory = base.system.config_for
        self.scenario = (base.with_grid(SWEEP_QUANTA)
                         .with_output(metrics=SWEEP_METRICS))

    def repeat(self) -> list:
        from repro import scenario
        from repro.core import optimize

        ops: list = []
        self.sweep = _timed("sweep", lambda: scenario.run(self.scenario), ops)
        self.slo = _timed("slo", lambda: optimize.optimize_quantum_for_slo(
            self.factory, target=SLO_TARGET, bounds=SLO_BOUNDS, tol=SLO_TOL),
            ops)
        return ops

    def reference(self) -> dict:
        return {
            "sweep": {"values": list(self.sweep.values()),
                      "metric_names": list(self.sweep.metric_names),
                      "metrics": [[list(row) for row in pt.metrics]
                                  for pt in self.sweep.points],
                      "dist_kinds": [list(pt.dist_kinds)
                                     for pt in self.sweep.points]},
            "slo": {"quantum": self.slo.quantum,
                    "evaluations": self.slo.evaluations,
                    "metric_value": self.slo.metric_value},
        }

    def check(self) -> list:
        want = _load_reference("percentiles")
        failures = []
        points = self.sweep.points
        if [pt.error for pt in points if pt.error is not None]:
            failures.append(("sweep", "error points"))
        if len(points) != len(want["sweep"]["metrics"]):
            failures.append(("sweep", "point count differs"))
        for i, (pt, rows, kinds) in enumerate(zip(
                points, want["sweep"]["metrics"], want["sweep"]["dist_kinds"])):
            if list(pt.dist_kinds) != kinds or \
                    any(k != "exact" for k in pt.dist_kinds):
                failures.append(("sweep", f"point {i} kinds {pt.dist_kinds}"))
            for p, (row, ref_row) in enumerate(zip(pt.metrics, rows)):
                for sel, a, b in zip(SWEEP_METRICS, row, ref_row):
                    if not _close(a, b, PERCENTILE_RTOL):
                        failures.append(("sweep", f"point {i} class {p} "
                                         f"{sel} = {a!r}, reference {b!r}"))
        ref_slo = want["slo"]
        if self.slo.quantum != ref_slo["quantum"] or \
                self.slo.evaluations != ref_slo["evaluations"]:
            failures.append(("slo", f"quantum {self.slo.quantum!r} in "
                             f"{self.slo.evaluations} evaluations, reference "
                             f"{ref_slo['quantum']!r} in "
                             f"{ref_slo['evaluations']}"))
        return failures


class Service(Workload):
    """The scenario daemon on a fresh store, over the stdio wire path.

    One client, closed loop: each request is sent after the previous
    reply, so the daemon (``workers=1``) never queues.
    """

    #: In-process solves of ``check()`` (counted as attempted operations).
    extra_checks = traffic.CHECKED_POINTS
    detail = {"cold_request_p50_s": (("cold",), 50),
              "cold_request_p90_s": (("cold",), 90),
              "warm_request_p50_s": (("warm", "reopen"), 50),
              "warm_request_p99_s": (("warm", "reopen"), 99)}

    def __init__(self, seed: int, tmp: pathlib.Path):
        # The cold points plus the two presets appended after them.
        self.traffic = traffic.service_traffic(seed,
                                               traffic.COLD_POINTS + 2)
        self.store_dir = tmp / "store"
        self.svc = None

    def _point_scenario(self, rho: float, quantum: float):
        import dataclasses

        system = dataclasses.replace(self.base.system,
                                     args={"arrival_rate": rho})
        return dataclasses.replace(self.base, name="fig23-point",
                                   system=system).with_grid((quantum,))

    def setup(self) -> None:
        from repro.scenario import get_scenario
        from repro.serialize import scenario_to_dict
        from repro.service import protocol
        from repro.service.daemon import ScenarioService, ServiceConfig

        self.base = get_scenario("fig2")
        requests = [{"id": f"c{i}", "op": "run", "scenario": scenario_to_dict(
                        self._point_scenario(rho, q))}
                    for i, (rho, q) in enumerate(self.traffic.points)]
        # Preset fig2 at two tiers: "quick" shares 9 of its 10 points
        # with "default", so its cold reply mixes store hits and a solve.
        requests += [{"id": "fig2-default", "op": "run", "preset": "fig2",
                      "grid": "default"},
                     {"id": "fig2-quick", "op": "run", "preset": "fig2",
                      "grid": "quick"}]
        self.encode = protocol.encode
        self.lines = [self.encode(r) for r in requests]
        self.svc = ScenarioService(ServiceConfig(
            store_dir=str(self.store_dir), workers=1)).open()
        warmup = {"id": "warmup", "op": "run", "scenario": scenario_to_dict(
            self._point_scenario(0.5, 1.7))}
        reply = self.svc.handle_line(self.encode(warmup))
        if reply.get("status") != "ok":
            raise RuntimeError(f"warm-up request failed: {reply}")

    def _send(self, label: str, index: int, ops: list, replies: list) -> None:
        t0 = time.perf_counter()
        reply = self.svc.handle_line(self.lines[index])
        self.encode(reply)
        ops.append((label, time.perf_counter() - t0))
        replies.append((label, index, reply))

    def repeat(self) -> list:
        ops: list = []
        self.replies: list = []
        for i, warm in enumerate(self.traffic.warm_after):
            self._send("cold", i, ops, self.replies)
            for j in warm:
                self._send("warm", j, ops, self.replies)
        self.svc.close()
        self.svc.open()
        for i in range(len(self.lines)):
            self._send("reopen", i, ops, self.replies)
        return ops

    def check(self) -> list:
        from repro import scenario

        failures = []
        cold: dict[int, str] = {}
        for k, (label, i, reply) in enumerate(self.replies):
            if reply.get("status") != "ok" or reply.get("error_points"):
                failures.append((f"{label}:{k}", f"reply {reply.get('status')}"
                                 f" with {reply.get('error_points')} errors"))
                continue
            payload = self.encode(reply["result"])
            if label == "cold":
                cold[i] = payload
            elif not reply.get("cached") or payload != cold.get(i):
                failures.append((f"{label}:{k}",
                                 f"request {i} replay differs from its cold "
                                 "reply"))
        for i in self.traffic.checked:
            rho, q = self.traffic.points[i]
            local = self.encode(scenario.run_result_to_dict(
                scenario.run(self._point_scenario(rho, q))))
            if local != cold.get(i):
                failures.append((f"check:{i}",
                                 "cold reply differs from an in-process run"))
        return failures

    def close(self) -> None:
        if self.svc is not None:
            self.svc.close()
            self.svc = None


WORKLOADS = {
    "figures": Figures,
    "figures-batched": FiguresBatched,
    "percentiles": Percentiles,
    "service": Service,
}
