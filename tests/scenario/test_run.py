"""Tests for the unified scenario runner."""

import math

import pytest

from repro.core import GangSchedulingModel
from repro.scenario import (
    EngineSpec,
    OutputSpec,
    Scenario,
    SweepAxis,
    SystemSpec,
    canonical_bytes,
    get_scenario,
    run,
    run_result_to_dict,
)

SMALL_SWEEP = SystemSpec(preset="fig23", args={"arrival_rate": 0.4},
                         axis=SweepAxis("quantum_mean", (1.0, 2.0)))
SMALL_POINT = SystemSpec(preset="fig23",
                         args={"arrival_rate": 0.4, "quantum_mean": 2.0})


class TestAnalyticPoint:
    def test_matches_direct_solve(self, two_class_config):
        scenario = Scenario(name="pt",
                            system=SystemSpec(config=two_class_config))
        result = run(scenario)
        direct = GangSchedulingModel(two_class_config).solve()
        assert result.engine == "analytic"
        assert result.parameter is None
        assert len(result.points) == 1
        pt = result.points[0]
        for p in range(len(two_class_config.classes)):
            assert pt.mean_jobs[p] == pytest.approx(direct.mean_jobs(p),
                                                    rel=1e-12)
        assert result.solved is not None
        assert result.sim is None

    def test_engine_knobs_reach_the_solver(self, two_class_config):
        scenario = Scenario(
            name="pt", system=SystemSpec(config=two_class_config),
            engine=EngineSpec(heavy_traffic_only=True))
        result = run(scenario)
        direct = GangSchedulingModel(two_class_config).solve_heavy_traffic()
        assert result.points[0].mean_jobs[0] == pytest.approx(
            direct.mean_jobs(0), rel=1e-12)


class TestAnalyticSweep:
    def test_matches_workloads_sweep(self):
        from repro.workloads import fig23_config, sweep
        result = run(Scenario(name="sw", system=SMALL_SWEEP))
        reference = sweep("quantum_mean", [1.0, 2.0],
                          lambda q: fig23_config(0.4, q))
        assert result.parameter == "quantum_mean"
        assert result.values() == [1.0, 2.0]
        for i in range(2):
            assert result.points[i].mean_jobs == pytest.approx(
                reference.points[i].mean_jobs, rel=1e-12)

    def test_checkpoint_resume_counted(self, tmp_path):
        path = str(tmp_path / "store")
        scenario = Scenario(name="sw", system=SMALL_SWEEP,
                            engine=EngineSpec(checkpoint=path))
        first = run(scenario)
        assert first.resumed == 0
        again = run(scenario)
        assert again.resumed == len(again.points)
        assert again.points == first.points
        # The store client returns what the in-process sweep returns.
        plain = run(Scenario(name="sw", system=SMALL_SWEEP))
        assert canonical_bytes(run_result_to_dict(first)) \
            == canonical_bytes(run_result_to_dict(plain))

    def test_to_table_shapes(self):
        table = run(Scenario(name="sw", system=SMALL_SWEEP)).to_table()
        assert table.key_name == "quantum_mean"
        assert table.column_names == [f"N[class{p}]" for p in range(4)]
        assert "quantum_mean" in table.render()


class TestSimEngines:
    ENGINE = EngineSpec(engine="sim", horizon=400.0, replications=1)

    def test_sim_point(self):
        result = run(Scenario(name="sim", system=SMALL_POINT,
                              engine=self.ENGINE))
        assert result.engine == "sim"
        assert result.solved is None
        assert result.sim is not None
        pt = result.points[0]
        assert pt.mean_jobs is None
        assert len(pt.sim_mean_jobs) == 4
        assert pt.delta is None

    def test_both_point_reports_deltas(self):
        result = run(Scenario(
            name="both", system=SMALL_POINT,
            engine=EngineSpec(engine="both", horizon=2000.0,
                              replications=2)))
        pt = result.points[0]
        assert pt.mean_jobs is not None and pt.sim_mean_jobs is not None
        for p in range(4):
            expected = ((pt.mean_jobs[p] - pt.sim_mean_jobs[p])
                        / pt.sim_mean_jobs[p])
            assert pt.delta[p] == pytest.approx(expected)
        assert result.max_abs_delta() == pytest.approx(
            max(abs(d) for d in pt.delta))
        table = result.to_table()
        assert "delta[class0]" in table.column_names

    def test_both_sweep(self):
        scenario = Scenario(
            name="both-sweep",
            system=SystemSpec(preset="fig23", args={"arrival_rate": 0.4},
                              axis=SweepAxis("quantum_mean", (2.0,))),
            engine=EngineSpec(engine="both", horizon=1000.0))
        result = run(scenario)
        assert len(result.points) == 1
        assert result.points[0].delta is not None
        assert not math.isnan(result.delta_series(0)[0])


class TestPresetRuns:
    def test_fig4_matches_manual_sweep(self):
        from repro.workloads import fig4_config, sweep
        result = run(get_scenario("fig4"))
        grid = list(get_scenario("fig4").grid())
        reference = sweep("service_rate", grid, fig4_config)
        for i in range(len(grid)):
            assert result.points[i].mean_jobs == pytest.approx(
                reference.points[i].mean_jobs, rel=1e-12)


class TestObservability:
    def test_output_spec_arms_a_trace(self, tmp_path):
        trace = tmp_path / "run.jsonl"
        scenario = Scenario(name="traced", system=SMALL_POINT,
                            output=OutputSpec(measures=("mean_jobs",),
                                              trace=str(trace)))
        run(scenario)
        text = trace.read_text()
        assert '"trace-header"' in text
        assert "scenario.run" in text
        assert "traced" in text

    def test_existing_session_not_clobbered(self, tmp_path):
        from repro import obs
        outer = tmp_path / "outer.jsonl"
        inner = tmp_path / "inner.jsonl"
        scenario = Scenario(name="traced", system=SMALL_POINT,
                            output=OutputSpec(measures=("mean_jobs",),
                                              trace=str(inner)))
        obs.start(trace_path=str(outer))
        try:
            run(scenario)
        finally:
            obs.stop()
        assert not inner.exists()
        assert "scenario.run" in outer.read_text()


class TestDistributionMetrics:
    """Selector threading: RunPoint.metrics end to end."""

    OUT = OutputSpec(metrics=("mean", "p95", "p99"))

    def test_analytic_point_metrics(self):
        result = run(Scenario(name="pt", system=SMALL_POINT,
                              output=self.OUT))
        assert result.metric_names == ("mean", "p95", "p99")
        pt = result.points[0]
        assert pt.dist_kinds == ("exact",) * len(pt.metrics)
        for p, row in enumerate(pt.metrics):
            mean, p95, p99 = row
            assert mean == pytest.approx(pt.mean_response_time[p])
            assert mean < p95 < p99

    def test_default_scenarios_carry_no_metrics(self):
        result = run(Scenario(name="pt", system=SMALL_POINT))
        assert result.metric_names is None
        assert result.points[0].metrics is None
        assert result.metrics_table() is None

    def test_both_engine_reports_sim_quantiles(self):
        result = run(Scenario(
            name="both", system=SMALL_POINT, output=self.OUT,
            engine=EngineSpec(engine="both", horizon=2000.0,
                              replications=2)))
        pt = result.points[0]
        assert pt.sim_metrics is not None
        assert pt.sim_metric_half_width is not None
        num_classes = len(pt.metrics)
        assert len(pt.sim_metrics) == num_classes
        for p in range(num_classes):
            sim_mean, sim_p95, sim_p99 = pt.sim_metrics[p]
            assert sim_mean < sim_p95 < sim_p99
            assert all(hw >= 0 for hw in pt.sim_metric_half_width[p])
        table = result.metrics_table()
        cols = table.column_names
        assert any(c.startswith("p99[") for c in cols)
        assert any(c.startswith("sim:p99[") for c in cols)

    def test_round_trip_preserves_metric_fields(self):
        from repro.scenario import run_result_from_dict, run_result_to_dict
        result = run(Scenario(name="pt", system=SMALL_POINT,
                              output=self.OUT))
        back = run_result_from_dict(run_result_to_dict(result))
        assert back.metric_names == result.metric_names
        assert back.points[0].metrics == result.points[0].metrics
        assert back.points[0].dist_kinds == result.points[0].dist_kinds

    def test_default_payloads_keep_historical_keys(self):
        from repro.scenario import run_point_to_dict
        result = run(Scenario(name="pt", system=SMALL_POINT))
        payload = run_point_to_dict(result.points[0])
        assert "metrics" not in payload
        assert "dist_kinds" not in payload
        assert "sim_metrics" not in payload
        assert "sim_metric_half_width" not in payload

    def test_sweep_threads_selectors(self):
        result = run(Scenario(name="sw", system=SMALL_SWEEP,
                              output=OutputSpec(metrics=("mean", "p99"))))
        assert result.metric_names == ("mean", "p99")
        for pt in result.points:
            assert pt.metrics is not None
            assert all(row[1] > row[0] for row in pt.metrics)
