"""Trace summarization and report rendering."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs import metrics, summarize_trace
from repro.obs.report import load_trace, render_report, render_requests
from repro.obs.trace import request_scope, span, start_tracing, stop_tracing


def make_trace(path):
    """A small two-class trace with nested stage spans and metrics."""
    with obs.session(trace_path=path):
        for klass in (0, 1):
            with span("fixed_point"):
                with span("stage.rsolve", stage="rsolve", klass=klass):
                    pass
                with span("stage.boundary", stage="boundary", klass=klass):
                    pass
        with span("stage.recombine", stage="recombine"):
            pass
        metrics.inc("cache.hits", 3)
        metrics.inc("rsolve.solves", method="cr")


class TestLoadTrace:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        make_trace(path)
        events = load_trace(path)
        assert events[0]["kind"] == "trace-header"
        assert any(ev["kind"] == "metrics" for ev in events)

    def test_corrupt_trailing_line_dropped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        make_trace(path)
        whole = len(load_trace(path))
        with open(path, "a") as fh:
            fh.write('{"kind": "B", "name": "tru')  # crash mid-write
        assert len(load_trace(path)) == whole

    def test_corrupt_interior_line_skipped_with_warning(self, tmp_path):
        path = tmp_path / "t.jsonl"
        make_trace(path)
        whole = len(load_trace(path))
        with open(path, "a") as fh:
            fh.write("not json\n")
            fh.write('{"kind": "custom"}\n')
        with pytest.warns(UserWarning, match="corrupt trace"):
            events = load_trace(path)
        assert len(events) == whole + 1     # the bad line, and only it
        assert events[-1] == {"kind": "custom"}


class TestSummarize:
    def test_stage_table_aggregation(self, tmp_path):
        path = tmp_path / "t.jsonl"
        make_trace(path)
        s = summarize_trace(path)
        assert s.stages == ["rsolve", "boundary", "recombine"]
        assert s.classes == [0, 1, None]
        assert ("rsolve", 0) in s.stage_seconds
        assert s.stage_counts[("rsolve", 0)] == 1
        assert s.stage_counts[("recombine", None)] == 1
        assert s.stage_total("rsolve") == pytest.approx(
            s.stage_seconds[("rsolve", 0)] + s.stage_seconds[("rsolve", 1)])
        assert set(s.stage_totals()) == {"rsolve", "boundary", "recombine"}

    def test_span_rollup_and_pids(self, tmp_path):
        path = tmp_path / "t.jsonl"
        make_trace(path)
        s = summarize_trace(path)
        assert s.spans["fixed_point"]["count"] == 2
        assert s.spans["fixed_point"]["wall"] >= 0.0
        assert len(s.pids) == 1
        assert s.unclosed == 0

    def test_metrics_rollup(self, tmp_path):
        path = tmp_path / "t.jsonl"
        make_trace(path)
        s = summarize_trace(path)
        assert s.metrics["counters"]["cache.hits"] == 3.0
        assert s.metrics["counters"]["rsolve.solves{method=cr}"] == 1.0

    def test_unclosed_span_detected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = start_tracing(path)
        tracer.begin("crashy", None)  # never ended
        stop_tracing()
        assert summarize_trace(path).unclosed == 1

    def test_worker_metrics_records_merge(self, tmp_path):
        path = tmp_path / "t.jsonl"
        make_trace(path)
        with open(path, "a") as fh:  # a worker's per-point snapshot
            fh.write(json.dumps({"kind": "metrics", "pid": 4242,
                                 "scope": "point",
                                 "counters": {"cache.hits": 2.0}}) + "\n")
        s = summarize_trace(path)
        assert s.metrics["counters"]["cache.hits"] == 5.0
        assert 4242 in s.pids


class TestRequestsAndProfile:
    def make_request_trace(self, path):
        with obs.session(trace_path=path):
            with request_scope("cli.1"):
                with span("service.request"):
                    with span("worker.task"):
                        pass
            with request_scope("cli.2"):
                with span("service.request"):
                    pass
        with open(path, "a") as fh:     # a merged worker-side record
            fh.write(json.dumps(
                {"kind": "B", "name": "worker.task", "ts": 1.0,
                 "pid": 999, "tid": 1, "sid": 1, "parent": None,
                 "depth": 0, "req": "cli.1"}) + "\n")
            fh.write(json.dumps(
                {"kind": "E", "name": "worker.task", "ts": 1.5,
                 "pid": 999, "tid": 1, "sid": 1, "wall": 0.5,
                 "cpu": 0.4, "req": "cli.1"}) + "\n")
            fh.write(json.dumps(
                {"kind": "profile", "pid": 999, "req": "cli.1",
                 "hotspots": [
                     {"func": "a.py:1:f", "calls": 10,
                      "tottime": 0.2, "cumtime": 0.3},
                     {"func": "a.py:1:f", "calls": 5,
                      "tottime": 0.1, "cumtime": 0.1}]}) + "\n")

    def test_spans_group_by_request_across_pids(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self.make_request_trace(path)
        s = summarize_trace(path)
        assert set(s.requests) == {"cli.1", "cli.2"}
        assert len(s.requests["cli.1"]["pids"]) == 2
        assert s.requests["cli.1"]["spans"] == 3
        assert s.requests["cli.2"]["spans"] == 1

    def test_profile_records_sum_by_function(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self.make_request_trace(path)
        s = summarize_trace(path)
        agg = s.profile["a.py:1:f"]
        assert agg["calls"] == 15
        assert agg["tottime"] == pytest.approx(0.3)

    def test_render_requests_table(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self.make_request_trace(path)
        text = render_requests(summarize_trace(path))
        assert "cli.1" in text and "cli.2" in text
        assert "999" in text                    # the worker pid column

    def test_render_requests_empty(self, tmp_path):
        path = tmp_path / "t.jsonl"
        make_trace(path)
        assert "no request-tagged spans" in render_requests(
            summarize_trace(path))

    def test_report_mentions_requests_and_hotspots(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self.make_request_trace(path)
        text = render_report(summarize_trace(path))
        assert "requests: 2 traced" in text
        assert "worker profile hotspots" in text
        assert "a.py:1:f" in text


class TestRender:
    def test_report_sections(self, tmp_path):
        path = tmp_path / "t.jsonl"
        make_trace(path)
        text = render_report(summarize_trace(path))
        assert "per-class, per-stage wall seconds:" in text
        assert "class0" in text and "class1" in text
        assert "rsolve" in text and "recombine" in text
        assert "spans:" in text and "fixed_point: count=2" in text
        # ``cache.*`` has no rollup: it prints under "other metrics".
        assert "other metrics:" in text and "cache:" not in text
        assert "cache.hits = 3" in text.split("other metrics:", 1)[1]
        assert "solver:" in text and "rsolve.solves{method=cr}" in text

    def test_empty_trace_renders(self, tmp_path):
        path = tmp_path / "t.jsonl"
        start_tracing(path)
        stop_tracing()
        text = render_report(summarize_trace(path))
        assert "1 event(s)" in text

    def test_unknown_metrics_go_to_other_section(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with obs.session(trace_path=path):
            metrics.inc("weird.counter")
        text = render_report(summarize_trace(path))
        assert "other metrics:" in text
        assert "weird.counter" in text


class TestTimingsAgreement:
    def test_report_stage_totals_match_result_timings(self, tmp_path,
                                                      two_class_config):
        """Acceptance: trace totals vs FixedPointResult.timings (5%)."""
        from repro.core import GangSchedulingModel
        path = tmp_path / "solve.jsonl"
        with obs.session(trace_path=path):
            solved = GangSchedulingModel(two_class_config).solve()
        totals = summarize_trace(path).stage_totals()
        for stage, seconds in solved.timings.items():
            assert totals[stage] == pytest.approx(seconds, rel=0.05), stage
