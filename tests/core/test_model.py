"""Tests for GangSchedulingModel / SolvedModel and the fixed point."""

import pytest

from repro.core import ClassConfig, GangSchedulingModel, SystemConfig
from repro.core.fixed_point import FixedPointOptions, run_fixed_point
from repro.errors import UnstableSystemError


class TestFixedPointDriver:
    def test_converges_on_small_system(self, two_class_config):
        res = run_fixed_point(two_class_config, FixedPointOptions(tol=1e-6))
        assert res.converged
        assert res.iterations >= 2
        # Mean jobs decrease from the heavy-traffic upper bound.
        first = res.history[0].mean_jobs
        last = res.history[-1].mean_jobs
        assert all(l <= f + 1e-9 for f, l in zip(first, last))

    def test_heavy_traffic_only_single_iteration(self, two_class_config):
        res = run_fixed_point(two_class_config,
                              FixedPointOptions(heavy_traffic_only=True))
        assert res.iterations == 1 and res.converged

    def test_vacations_shrink_from_heavy_traffic(self, two_class_config):
        res = run_fixed_point(two_class_config, FixedPointOptions())
        hv = res.history[0].vacation_means
        fv = res.history[-1].vacation_means
        assert all(f < h for h, f in zip(hv, fv))

    def test_fully_saturated_system_raises(self):
        cfg = SystemConfig(processors=2, classes=(
            ClassConfig.markovian(1, arrival_rate=5.0, service_rate=1.0,
                                  quantum_mean=1.0, overhead_mean=0.01),
        ))
        with pytest.raises(UnstableSystemError, match="saturated"):
            run_fixed_point(cfg)

    def test_heavy_traffic_only_reports_unstable_classes(self):
        cfg = SystemConfig(processors=2, classes=(
            ClassConfig.markovian(1, arrival_rate=5.0, service_rate=1.0,
                                  quantum_mean=1.0, overhead_mean=0.01),
        ))
        from repro.core.fixed_point import FixedPointOptions
        with pytest.raises(UnstableSystemError, match="class0"):
            run_fixed_point(cfg, FixedPointOptions(heavy_traffic_only=True))

    def test_partial_saturation_keeps_stable_classes(self):
        # One class far over its share; the other fine.  The stable
        # class must still get a finite solution.
        cfg = SystemConfig(processors=2, classes=(
            ClassConfig.markovian(1, arrival_rate=4.0, service_rate=1.0,
                                  quantum_mean=1.0, overhead_mean=0.01,
                                  name="hot"),
            ClassConfig.markovian(2, arrival_rate=0.1, service_rate=2.0,
                                  quantum_mean=1.0, overhead_mean=0.01,
                                  name="cool"),
        ))
        solved = GangSchedulingModel(cfg).solve()
        assert not solved.classes[0].stable
        assert solved.mean_jobs(0) == float("inf")
        assert solved.classes[1].stable
        assert solved.mean_jobs(1) < float("inf")
        assert solved.tail_probability(0, 10) == 1.0

    def test_phase_type_parameters_work(self, phased_class_config):
        res = run_fixed_point(phased_class_config,
                              FixedPointOptions(max_iterations=60))
        assert res.converged
        assert all(m > 0 for m in res.history[-1].mean_jobs)


class TestSolvedModel:
    @pytest.fixture
    def solved(self, two_class_config):
        return GangSchedulingModel(two_class_config).solve()

    def test_mean_jobs_aggregates(self, solved):
        total = sum(solved.mean_jobs(p) for p in range(2))
        assert solved.mean_jobs() == pytest.approx(total)

    def test_littles_law_exact(self, solved, two_class_config):
        for p, cls in enumerate(two_class_config.classes):
            n = solved.mean_jobs(p)
            t = solved.mean_response_time(p)
            assert n == pytest.approx(cls.arrival_rate * t, rel=1e-12)

    def test_throughput_equals_arrival_rate(self, solved, two_class_config):
        # Flow conservation: the chain's stationary departure rate must
        # equal the arrival rate — a strong end-to-end consistency check
        # on the generator construction.
        for p, cls in enumerate(two_class_config.classes):
            thr = solved.classes[p].measures.throughput
            assert thr == pytest.approx(cls.arrival_rate, rel=1e-6)

    def test_utilization_equals_rho(self, solved, two_class_config):
        for p in range(2):
            util = solved.classes[p].measures.utilization
            assert util == pytest.approx(two_class_config.utilization(p),
                                         rel=1e-6)

    def test_tail_probabilities_decreasing(self, solved):
        tails = [solved.tail_probability(0, k) for k in range(8)]
        assert all(a >= b - 1e-12 for a, b in zip(tails, tails[1:]))

    def test_waiting_plus_in_service(self, solved):
        for cr in solved.classes:
            m = cr.measures
            assert m.mean_jobs == pytest.approx(
                m.mean_jobs_waiting + m.mean_jobs_in_service, rel=1e-9)

    def test_describe_mentions_classes(self, solved):
        text = solved.describe()
        assert "small" in text and "big" in text

    def test_heavy_traffic_upper_bounds_fixed_point(self, two_class_config):
        model = GangSchedulingModel(two_class_config)
        ht = model.solve_heavy_traffic()
        fp = model.solve()
        for p in range(2):
            assert fp.mean_jobs(p) <= ht.mean_jobs(p) + 1e-9


class TestAcceleration:
    def test_aitken_matches_plain(self, two_class_config):
        from repro.core.fixed_point import FixedPointOptions, run_fixed_point
        plain = run_fixed_point(two_class_config,
                                FixedPointOptions(acceleration="none"))
        acc = run_fixed_point(two_class_config,
                              FixedPointOptions(acceleration="aitken"))
        assert acc.converged and plain.converged
        for a, b in zip(acc.history[-1].mean_jobs,
                        plain.history[-1].mean_jobs):
            assert a == pytest.approx(b, rel=5e-4)

    def test_aitken_not_slower_overall(self):
        """Across the figure regimes, acceleration saves iterations."""
        from repro.core.fixed_point import FixedPointOptions, run_fixed_point
        from repro.workloads import fig23_config
        total_plain = total_acc = 0
        for lam, q in [(0.4, 2.0), (0.6, 1.0)]:
            cfg = fig23_config(lam, q)
            total_plain += run_fixed_point(
                cfg, FixedPointOptions(acceleration="none")).iterations
            total_acc += run_fixed_point(
                cfg, FixedPointOptions(acceleration="aitken")).iterations
        assert total_acc < total_plain


class TestReductionConsistency:
    def test_reductions_agree_on_small_system(self, two_class_config):
        results = {}
        for red in ("moments2", "moments3", "exact"):
            model = GangSchedulingModel(two_class_config, reduction=red,
                                        truncation_mass=1e-8,
                                        max_truncation_levels=80)
            results[red] = GangSchedulingModel.solve(model).mean_jobs(0)
        assert results["moments2"] == pytest.approx(results["exact"], rel=0.02)
        assert results["moments3"] == pytest.approx(results["exact"], rel=0.02)


class TestPolicies:
    def test_idle_policy_solves(self, two_class_config):
        cfg = SystemConfig(processors=two_class_config.processors,
                           classes=two_class_config.classes,
                           empty_queue_policy="idle")
        sol = GangSchedulingModel(cfg).solve(max_iterations=60)
        assert sol.mean_jobs() > 0

    def test_switch_beats_idle(self, two_class_config):
        """Early switching recycles idle time: fewer jobs on average."""
        switch = GangSchedulingModel(two_class_config).solve()
        idle_cfg = SystemConfig(processors=two_class_config.processors,
                                classes=two_class_config.classes,
                                empty_queue_policy="idle")
        idle = GangSchedulingModel(idle_cfg).solve(max_iterations=60)
        assert switch.mean_jobs() < idle.mean_jobs()
