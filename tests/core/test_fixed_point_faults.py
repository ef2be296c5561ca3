"""Fixed-point edge paths, driven by deterministic fault injection.

The optimistic-bootstrap restart, per-class saturation pinning, and the
all-saturated abort are hard to reach with well-posed configurations on
demand; the fault harness makes each path deterministic.
"""

import math

import numpy as np
import pytest

from repro.core.fixed_point import FixedPointOptions, run_fixed_point
from repro.errors import UnstableSystemError
from repro.resilience import faults


@pytest.fixture(autouse=True)
def _disarm_all_faults():
    yield
    faults.disarm()


class TestOptimisticBootstrap:
    def test_transient_instability_triggers_bootstrap(self, two_class_config):
        # The heavy-traffic initialization "fails" once; the driver must
        # restart from near-zero quanta and still converge.
        with faults.inject("fixed_point.class_solve",
                           raises=UnstableSystemError, times=1):
            result = run_fixed_point(two_class_config)
        assert result.used_bootstrap
        assert result.converged
        assert all(not s for s in result.saturated)
        assert all(math.isfinite(m) for m in result.history[-1].mean_jobs)

    def test_reference_run_does_not_bootstrap(self, two_class_config):
        result = run_fixed_point(two_class_config)
        assert not result.used_bootstrap
        assert result.converged

    def test_bootstrap_result_matches_unfaulted(self, two_class_config):
        clean = run_fixed_point(two_class_config)
        with faults.inject("fixed_point.class_solve",
                           raises=UnstableSystemError, times=1):
            faulted = run_fixed_point(two_class_config)
        clean_means = clean.history[-1].mean_jobs
        faulted_means = faulted.history[-1].mean_jobs
        assert faulted_means == pytest.approx(clean_means, rel=1e-3)


class TestSaturationPinning:
    def test_persistently_unstable_class_is_pinned(self, two_class_config):
        # Class 0 is "genuinely" saturated: every solve attempt fails.
        with faults.inject("fixed_point.class_solve",
                           raises=UnstableSystemError, keys=(0,)):
            result = run_fixed_point(two_class_config)
        assert result.saturated == [True, False]
        assert result.solutions[0] is None
        assert result.solutions[1] is not None
        last = result.history[-1].mean_jobs
        assert math.isinf(last[0]) and math.isfinite(last[1])
        # The pinned class's vacation feedback uses its full quantum.
        assert result.converged

    def test_pinned_class_reports_unstable_in_model(self, two_class_config):
        from repro.core import GangSchedulingModel
        with faults.inject("fixed_point.class_solve",
                           raises=UnstableSystemError, keys=(1,)):
            solved = GangSchedulingModel(two_class_config).solve()
        assert not solved.classes[1].stable
        assert math.isinf(solved.classes[1].mean_jobs)
        assert solved.classes[0].stable
        assert solved.tail_probability(1, 5) == 1.0


class TestAllSaturated:
    def test_every_class_saturated_raises(self, two_class_config):
        with faults.inject("fixed_point.class_solve",
                           raises=UnstableSystemError):
            with pytest.raises(UnstableSystemError, match="saturated"):
                run_fixed_point(two_class_config)

    def test_heavy_traffic_only_fails_fast(self, two_class_config):
        opts = FixedPointOptions(heavy_traffic_only=True)
        with faults.inject("fixed_point.class_solve",
                           raises=UnstableSystemError, keys=(0,)):
            with pytest.raises(UnstableSystemError, match="heavy-traffic"):
                run_fixed_point(two_class_config, opts)


class TestResilienceWiring:
    def test_solutions_carry_solve_reports(self, two_class_config):
        result = run_fixed_point(two_class_config)
        for sol in result.solutions:
            assert sol.solve_report is not None
            assert sol.solve_report.method == "logreduction"

    def test_rmatrix_fault_recovered_by_fallback(self, two_class_config):
        from repro.errors import ConvergenceError
        clean = run_fixed_point(two_class_config)
        with faults.inject("rmatrix.solve", raises=ConvergenceError,
                           keys=("logreduction",)):
            faulted = run_fixed_point(two_class_config)
        assert faulted.converged
        assert all(sol.solve_report.method == "cr"
                   for sol in faulted.solutions)
        assert np.allclose(faulted.history[-1].mean_jobs,
                           clean.history[-1].mean_jobs, rtol=1e-6)
