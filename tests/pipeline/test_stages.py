"""The staged pipeline must reproduce the reference solve path."""

import math

import numpy as np
import pytest

from repro.core.fixed_point import FixedPointOptions, run_fixed_point
from repro.core.model import GangSchedulingModel
from repro.workloads.presets import fig23_config
from tests.legacy_route import legacy_route


@pytest.fixture(scope="module")
def config():
    return fig23_config(0.4, 2.0)


@pytest.fixture(scope="module")
def results(config):
    with legacy_route():
        legacy = run_fixed_point(config, FixedPointOptions())
    fast = run_fixed_point(config, FixedPointOptions())
    return legacy, fast


class TestPipelineParity:
    def test_mean_jobs_match_reference_path(self, results):
        legacy, fast = results
        for a, b in zip(legacy.history[-1].mean_jobs,
                        fast.history[-1].mean_jobs):
            assert abs(a - b) <= 1e-8

    def test_same_iteration_count(self, results):
        legacy, fast = results
        assert legacy.iterations == fast.iterations
        assert legacy.converged and fast.converged

    def test_vacation_means_match(self, results):
        legacy, fast = results
        for a, b in zip(legacy.history[-1].vacation_means,
                        fast.history[-1].vacation_means):
            assert abs(a - b) <= 1e-8


class TestTimings:
    def test_result_carries_stage_timings(self, results):
        _, fast = results
        for stage in ("assemble", "stability", "rsolve", "boundary",
                      "extract", "reduce", "recombine"):
            assert stage in fast.timings, stage
            assert fast.timings[stage] >= 0.0

    def test_solved_model_carries_timings(self, config):
        solved = GangSchedulingModel(config).solve()
        assert "measures" in solved.timings
        assert "rsolve" in solved.timings


class TestSaturatedMeasures:
    def test_saturated_constructor_values(self):
        from repro.core.measures import ClassMeasures

        m = ClassMeasures.saturated()
        assert m.mean_jobs == float("inf")
        assert m.mean_response_time == float("inf")
        assert m.mean_jobs_waiting == float("inf")
        assert m.variance_jobs == float("inf")
        assert math.isnan(m.mean_jobs_in_service)
        assert math.isnan(m.service_fraction)
        assert math.isnan(m.throughput)
        assert math.isnan(m.utilization)
        assert m.skip_probability_flow == 0.0

    def test_saturated_class_uses_constructor(self):
        from repro.core.measures import ClassMeasures
        from repro.workloads.presets import fig5_config

        # Starve every non-focus class: they saturate, and _package
        # must hand them the canonical saturated measures.
        solved = GangSchedulingModel(
            fig5_config(focus_class=0, fraction=0.97)).solve()
        saturated = [c for c in solved.classes if not c.stable]
        assert saturated, "expected at least one saturated class"
        canonical = ClassMeasures.saturated()
        for c in saturated:
            for name in ("mean_jobs", "mean_response_time",
                         "mean_jobs_waiting", "mean_jobs_in_service",
                         "service_fraction", "skip_probability_flow",
                         "throughput", "utilization", "variance_jobs"):
                got = getattr(c.measures, name)
                want = getattr(canonical, name)
                # nan != nan, so compare by kind
                assert (got == want) or (math.isnan(got)
                                         and math.isnan(want)), name


def test_warm_start_r_seed_survives_iterations(config):
    # The per-class R matrices must be carried across iterations: the
    # second iteration's seed equals the first iteration's solution.
    from repro.pipeline.context import SolveContext
    from repro.pipeline import stages
    from repro.core.vacation import heavy_traffic_vacation

    opts = FixedPointOptions()
    ctx = SolveContext.create(config, opts)
    vacations = [heavy_traffic_vacation(config, p)
                 for p in range(config.num_classes)]
    stages.solve_all(ctx, vacations)
    seeds = [art.R.copy() for art in ctx.classes]
    # Identical blocks: each class is re-solved from its own converged
    # R, which passes the refinement's residual test at step 0 and
    # comes back unchanged.
    stages.solve_all(ctx, vacations)
    for art, seed in zip(ctx.classes, seeds):
        np.testing.assert_array_equal(art.R, seed)
