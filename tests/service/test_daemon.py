"""In-process tests for the scenario service core (workers=0).

The subprocess/chaos behavior lives in ``test_chaos.py``; here the
service runs inline so the request semantics — dedupe, shard reuse,
degradation, store discipline — are cheap to exercise.
"""

import dataclasses

import pytest

from repro.scenario import (
    OutputSpec,
    canonical_bytes,
    get_scenario,
    point_key,
    run,
    run_result_to_dict,
)
from repro.serialize import scenario_to_dict
from repro.service import ScenarioService, ServiceConfig, daemon


@pytest.fixture
def service(tmp_path):
    config = ServiceConfig(store_dir=str(tmp_path / "store"))
    with ScenarioService(config) as svc:
        yield svc


def normalized(preset, grid="default"):
    """The scenario exactly as the service normalizes it."""
    scenario = get_scenario(preset, grid=grid)
    return dataclasses.replace(
        scenario,
        engine=dataclasses.replace(scenario.engine,
                                   workers=None, checkpoint=None),
        output=OutputSpec(measures=scenario.output.measures,
                          metrics=scenario.output.metrics))


class TestRunPath:
    def test_solve_cache_and_cross_grid_reuse(self, service):
        quick = get_scenario("fig2", grid="quick")
        r1 = service.handle({"id": "a", "preset": "fig2",
                             "grid": "quick"})
        assert r1["status"] == "ok" and not r1["cached"]
        assert r1["solved_points"] == len(quick.grid())
        assert r1["error_points"] == 0

        # Identical request: served whole from the result store.
        r2 = service.handle({"id": "b", "preset": "fig2",
                             "grid": "quick"})
        assert r2["cached"] and r2["result"] == r1["result"]

        # The inline form of the same scenario hashes to the same key.
        r3 = service.handle({"id": "c",
                             "scenario": scenario_to_dict(quick)})
        assert r3["cached"] and r3["key"] == r1["key"]

        # The default tier's grid is a subset of quick's: the sweep is
        # assembled entirely from stored per-point shards, zero solves.
        r4 = service.handle({"id": "d", "preset": "fig2"})
        assert r4["status"] == "ok" and not r4["cached"]
        assert r4["solved_points"] == 0
        assert r4["store_points"] == len(get_scenario("fig2").grid())

        # Byte-identity: the assembled result equals a fresh
        # single-process run of the normalized scenario.
        fresh = run_result_to_dict(run(normalized("fig2", "quick")))
        assert canonical_bytes(r1["result"]) == canonical_bytes(fresh)

    def test_engine_override_changes_cache_key(self, service):
        shard = scenario_to_dict(get_scenario("fig2").with_grid([0.5]))
        r1 = service.handle({"id": "a", "scenario": shard})
        r2 = service.handle({"id": "b", "scenario": shard,
                             "engine": {"tol": 1e-7}})
        assert r1["status"] == "ok" and r2["status"] == "ok"
        assert not r2["cached"]
        assert r1["key"] != r2["key"]


class TestDegradation:
    def test_deadline_degrades_and_is_never_stored(self, service):
        quick = get_scenario("fig2", grid="quick")
        full = get_scenario("fig2", grid="full")
        shared = sorted(set(quick.grid()) & set(full.grid()))
        assert shared                   # the tiers are built to overlap

        # A deadline that has already passed: every point degrades.
        r1 = service.handle({"id": "a", "preset": "fig2",
                             "grid": "quick", "timeout": 1e-9})
        assert r1["status"] == "degraded"
        assert r1["error_points"] == len(quick.grid())
        for pt in r1["result"]["points"]:
            assert pt["error"].startswith("DeadlineExceeded")
        # Degraded results are never persisted.
        assert service.store.get_result(r1["key"]) is None

        # The same request without the deadline is a cold, clean solve.
        r2 = service.handle({"id": "b", "preset": "fig2",
                             "grid": "quick"})
        assert r2["status"] == "ok" and not r2["cached"]
        assert r2["error_points"] == 0

        # Partial degradation: the full tier shares points with quick —
        # those are served from the store, the rest come back as
        # explicit deadline errors (the completed prefix is kept).
        r3 = service.handle({"id": "c", "preset": "fig2",
                             "grid": "full", "timeout": 1e-9})
        assert r3["status"] == "degraded"
        assert r3["store_points"] == len(shared)
        assert r3["error_points"] == len(full.grid()) - len(shared)
        clean = [pt for pt in r3["result"]["points"]
                 if pt.get("error") is None]
        assert len(clean) == len(shared)
        # Neither the partial result nor the missing points leaked
        # into the store.
        assert service.store.get_result(r3["key"]) is None
        missing = sorted(set(full.grid()) - set(shared))
        scenario = normalized("fig2", "full")
        assert service.store.get_point(
            point_key(scenario, missing[0])) is None


class TestProtocolSurface:
    def test_unknown_preset_is_an_error_reply(self, service):
        resp = service.handle({"id": "x", "preset": "nope"})
        assert resp["status"] == "error"
        assert resp["error"] == "ValidationError"
        assert resp["id"] == "x"

    def test_malformed_line_yields_error_reply(self, service):
        resp = service.handle_line("{not json")
        assert resp["status"] == "error" and resp["id"] is None
        # A decodable line with a bad op still echoes its id back.
        resp = service.handle_line('{"id": "m", "op": "explode"}')
        assert resp["status"] == "error" and resp["id"] == "m"

    def test_control_ops(self, service):
        pong = service.handle({"id": "p", "op": "ping"})
        assert pong["status"] == "ok" and pong["op"] == "ping"
        stats = service.handle({"id": "s", "op": "stats"})
        assert "store" in stats and "pool" in stats
        assert stats["pool"]["workers"] == 0
        bye = service.handle({"id": "q", "op": "shutdown"})
        assert bye["op"] == "shutdown"
        assert service.shutting_down


class TestStoreResilience:
    def test_torn_store_repaired_and_still_served(self, tmp_path):
        config = ServiceConfig(store_dir=str(tmp_path / "store"))
        shard = scenario_to_dict(get_scenario("fig2").with_grid([0.5]))
        with ScenarioService(config) as svc:
            r1 = svc.handle({"id": "a", "scenario": shard})
            assert r1["status"] == "ok"
        # A daemon SIGKILLed mid-write leaves a torn tail line.
        segment = sorted((tmp_path / "store").glob("seg-*.jsonl"))[-1]
        with open(segment, "ab") as fh:
            fh.write(b'{"kind": "result", "key": "torn')
        with ScenarioService(config) as svc:
            assert svc.store.repaired_tails == 1
            r2 = svc.handle({"id": "b", "scenario": shard})
        assert r2["cached"] and r2["result"] == r1["result"]


class TestObservabilitySurface:
    """Health, enriched stats, exposition, and structured log wiring."""

    def test_health_ok_while_open(self, service):
        health = service.health()
        assert health["status"] == "ok"
        assert health["uptime_seconds"] >= 0.0
        assert health["checks"] == {"store": "ok", "pool": "ok",
                                    "accepting": True}

    def test_health_degraded_once_shutting_down(self, service):
        service.handle({"id": "q", "op": "shutdown"})
        health = service.health()
        assert health["status"] == "degraded"
        assert health["checks"]["accepting"] is False

    def test_health_degraded_after_close(self, tmp_path):
        config = ServiceConfig(store_dir=str(tmp_path / "store"))
        svc = ScenarioService(config)
        svc.open()
        svc.close()
        health = svc.health()
        assert health["status"] == "degraded"
        assert health["checks"]["store"] == "closed"
        assert health["checks"]["pool"] == "closed"

    def test_stats_enriched_and_backward_compatible(self, service):
        service.handle({"id": "a", "preset": "fig2", "grid": "quick"})
        stats = service.handle({"id": "s", "op": "stats"})
        # The pre-existing surface survives for old clients.
        assert "store" in stats and "pool" in stats and "metrics" in stats
        assert stats["uptime_seconds"] >= 0.0
        assert stats["health"]["status"] == "ok"
        assert stats["requests"]["total"] == 1
        assert stats["requests"]["by_status"] == {"ok": 1}
        (entry,) = stats["recent"]
        assert entry["request_id"] == "a.1"   # service-assigned, distinct
        assert entry["client_id"] == "a"
        assert entry["status"] == "ok" and entry["cached"] is False

    def test_recent_ring_is_bounded(self, tmp_path):
        config = ServiceConfig(store_dir=str(tmp_path / "store"),
                               recent_requests=2)
        with ScenarioService(config) as svc:
            for cid in ("a", "b", "c"):
                svc.handle({"id": cid, "preset": "fig2", "grid": "quick"})
            recent = svc._stats()["recent"]
        assert [e["client_id"] for e in recent] == ["b", "c"]
        assert [e["request_id"] for e in recent] == ["b.2", "c.3"]

    def test_metrics_exposition_round_trips(self, service):
        from repro.obs.prom import parse_exposition
        service.handle({"id": "a", "preset": "fig2", "grid": "quick"})
        families = parse_exposition(service.metrics_exposition())
        up = dict((s[0], s[2])
                  for s in families["repro_service_up"]["samples"])
        assert up["repro_service_up"] == 1.0
        assert families["repro_service_healthy"]["samples"][0][2] == 1.0
        totals = {tuple(sorted(labels.items())): v for _, labels, v
                  in families["repro_service_requests_total"]["samples"]}
        assert totals[(("status", "ok"),)] == 1.0
        assert families["repro_service_requests_total"]["type"] == "counter"
        assert "repro_service_pool_workers" in families

    def test_structured_log_covers_request_lifecycle(self, tmp_path):
        import json
        log_path = tmp_path / "svc.log"
        config = ServiceConfig(store_dir=str(tmp_path / "store"),
                               log=str(log_path))
        with ScenarioService(config) as svc:
            svc.handle({"id": "a", "preset": "fig2", "grid": "quick"})
        records = [json.loads(line)
                   for line in log_path.read_text().splitlines()]
        events = [r["event"] for r in records]
        assert events[0] == "service.start"
        assert events[-1] == "service.stop"
        done = next(r for r in records if r["event"] == "request.done")
        assert done["request_id"] == "a.1"
        assert done["status"] == "ok"


class TestCrossProcessTracing:
    """One service request must read as one timeline across pids."""

    def test_worker_spans_share_the_request_id(self, tmp_path):
        from repro.obs import summarize_trace
        trace_path = tmp_path / "svc.jsonl"
        config = ServiceConfig(store_dir=str(tmp_path / "store"),
                               workers=1, trace=str(trace_path))
        with ScenarioService(config) as svc:
            reply = svc.handle({"id": "t1", "preset": "fig2",
                                "grid": "quick"})
            assert reply["status"] == "ok"
        # Worker sidecar files were folded back into the main trace.
        assert not list(tmp_path.glob("svc.jsonl.w*"))
        summary = summarize_trace(trace_path)
        assert "t1.1" in summary.requests
        # Daemon pid plus at least one spawned worker pid.
        assert len(summary.requests["t1.1"]["pids"]) >= 2
        assert summary.requests["t1.1"]["spans"] > 0

    def test_inline_profile_records_reach_the_trace(self, tmp_path):
        from repro.obs import summarize_trace
        trace_path = tmp_path / "svc.jsonl"
        config = ServiceConfig(store_dir=str(tmp_path / "store"),
                               trace=str(trace_path),
                               profile_workers=True)
        with ScenarioService(config) as svc:
            svc.handle({"id": "p1", "preset": "fig2", "grid": "quick"})
        summary = summarize_trace(trace_path)
        assert summary.profile            # hotspots were aggregated
        assert all(agg["calls"] >= 0 and agg["tottime"] >= 0.0
                   for agg in summary.profile.values())


class TestDerivedSolveBudget:
    """Satellite regression: a request deadline must be carved into
    per-point solve budgets when the scenario sets none of its own, so
    one divergent point burns its slice — not the whole request."""

    def test_budget_is_remaining_deadline_over_cold_points(self, service):
        import time
        scenario = normalized("fig2", "quick")
        deadline = time.monotonic() + 10.0
        budget = daemon._derived_budget(scenario, deadline, 5)
        assert budget == pytest.approx(2.0, rel=0.05)

    def test_no_deadline_or_explicit_budget_means_no_derivation(
            self, service):
        import time
        scenario = normalized("fig2", "quick")
        assert daemon._derived_budget(scenario, None, 5) is None
        budgeted = scenario.with_engine(solve_budget=3.0)
        assert daemon._derived_budget(
            budgeted, time.monotonic() + 10.0, 5) is None
        # An expired deadline derives nothing; the pool times out.
        assert daemon._derived_budget(
            scenario, time.monotonic() - 1.0, 5) is None

    def test_divergent_point_degrades_alone_under_derived_budget(
            self, service, monkeypatch):
        """One shard that would run forever must come back as a single
        error point while its siblings still solve cleanly."""
        from repro.service import supervisor

        seen_budgets = []
        real_solve = supervisor.solve_shard

        def instrumented(shard):
            budget = shard["engine"].get("solve_budget")
            seen_budgets.append(budget)
            value = shard["system"]["axis"]["values"][0]
            if value == 0.5:
                # Stand-in for a divergent fixed point: the solver's
                # wall-clock budget check is what would abort it.
                raise RuntimeError(
                    f"BudgetExceededError: solve exceeded its "
                    f"{budget:.3f}s budget")
            return real_solve(shard)

        monkeypatch.setattr(supervisor, "solve_shard", instrumented)
        reply = service.handle({"id": "a", "preset": "fig2",
                                "grid": "quick", "timeout": 60.0})
        grid = get_scenario("fig2", grid="quick").grid()
        # Every cold shard carried an equal slice of the deadline.
        assert len(seen_budgets) == len(grid)
        assert all(b is not None for b in seen_budgets)
        assert all(b == pytest.approx(60.0 / len(grid), rel=0.05)
                   for b in seen_budgets)
        assert reply["error_points"] == 1
        assert reply["solved_points"] == len(grid) - 1
        bad = [pt for pt in reply["result"]["points"] if pt.get("error")]
        assert len(bad) == 1 and bad[0]["value"] == 0.5
        # The failed point is never persisted; the clean ones are,
        # under their unbudgeted keys — so a retry without a deadline
        # only re-solves the divergent point.
        scenario = normalized("fig2", "quick")
        assert service.store.get_point(point_key(scenario, 0.5)) is None
        assert service.store.get_point(
            point_key(scenario, grid[0])) is not None
        assert service.store.get_result(reply["key"]) is None
        monkeypatch.setattr(supervisor, "solve_shard", real_solve)
        retry = service.handle({"id": "b", "preset": "fig2",
                                "grid": "quick"})
        assert retry["status"] == "ok"
        assert retry["solved_points"] == 1
        assert retry["store_points"] == len(grid) - 1


class TestStdioFairness:
    """Round-robin intake across client IDs (not FIFO)."""

    def test_burst_client_cannot_starve_second_client(self, service,
                                                      monkeypatch):
        """A five-line script: client ``w`` warms the loop, client
        ``a`` bursts three requests while ``w``'s request is still
        being handled, and client ``b`` sends one afterwards.  Under
        FIFO ``b`` would wait out the whole burst; under round-robin
        it is served after exactly one of ``a``'s requests.
        """
        import io
        import json as jsonlib
        import threading

        enqueued_all = threading.Event()
        handled = []

        def stdin_lines():
            for rid in ("w", "a", "a", "a", "b"):
                yield jsonlib.dumps({"id": rid, "op": "ping"}) + "\n"
            # Resumed only after the reader thread consumed (and
            # therefore enqueued) the last line — unblocking "w"
            # here makes the burst-vs-single ordering deterministic.
            enqueued_all.set()

        def fake_handle_line(line):
            rid = jsonlib.loads(line)["id"]
            if rid == "w":
                assert enqueued_all.wait(timeout=30)
            handled.append(rid)
            return {"id": rid, "status": "ok"}

        monkeypatch.setattr(service, "handle_line", fake_handle_line)
        out = io.StringIO()
        service.serve_stdio(stdin=stdin_lines(), stdout=out)

        assert handled == ["w", "a", "b", "a", "a"]
        replies = [jsonlib.loads(l) for l in out.getvalue().splitlines()]
        assert replies[0]["status"] == "ready"
        assert [r["id"] for r in replies[1:]] == handled

    def test_single_client_stays_fifo(self, service, monkeypatch):
        import io
        import json as jsonlib

        handled = []
        monkeypatch.setattr(
            service, "handle_line",
            lambda line: handled.append(jsonlib.loads(line)["id"])
            or {"id": handled[-1], "status": "ok"})
        lines = iter(jsonlib.dumps({"id": "c", "seq": i}) + "\n"
                     for i in range(4))
        service.serve_stdio(stdin=lines, stdout=io.StringIO())
        assert handled == ["c", "c", "c", "c"]
