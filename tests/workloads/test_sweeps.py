"""Tests for the sweep driver."""

import math

import pytest

from repro.core import ClassConfig, SystemConfig
from repro.workloads import sweep


def tiny_config(lam):
    return SystemConfig(processors=2, classes=(
        ClassConfig.markovian(1, arrival_rate=lam, service_rate=1.0,
                              quantum_mean=2.0, overhead_mean=0.01,
                              name="only"),
    ))


class TestSweep:
    def test_runs_grid(self):
        res = sweep("lambda", [0.2, 0.5, 0.8], tiny_config)
        assert res.values() == [0.2, 0.5, 0.8]
        assert len(res.series(0)) == 3
        assert all(not math.isnan(v) for v in res.series(0))

    def test_series_monotone_in_load(self):
        res = sweep("lambda", [0.2, 0.5, 0.9, 1.2], tiny_config)
        ys = res.series(0)
        assert ys[0] < ys[1] < ys[2] < ys[3]

    def test_unstable_point_recorded_not_raised(self):
        res = sweep("lambda", [0.5, 5.0], tiny_config)
        assert res.points[0].error is None
        assert res.points[1].error is not None
        assert math.isnan(res.series(0)[1])

    def test_heavy_traffic_only_runs_one_iteration(self):
        res = sweep("lambda", [0.5], tiny_config, heavy_traffic_only=True)
        assert res.points[0].iterations == 1

    def test_render_and_rows(self):
        res = sweep("lambda", [0.3], tiny_config)
        rows = res.to_rows()
        assert rows[0] == ["lambda", "N[only]"]
        text = res.render()
        assert "lambda" in text and "N[only]" in text

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep("lambda", [], tiny_config)
