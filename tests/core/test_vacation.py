"""Tests for vacation construction (Theorems 4.1 and 4.3)."""

import numpy as np
import pytest

from repro.core import ClassConfig, SystemConfig, heavy_traffic_vacation
from repro.core.fixed_point import FixedPointOptions, run_fixed_point
from repro.core.vacation import REDUCTIONS, fixed_point_vacation, reduce_order
from repro.errors import ValidationError
from repro.phasetype import PhaseType, erlang, exponential
from tests.core.vacation_oracle import effective_quantum


def make_system(L=3, lam=0.3, policy="switch"):
    classes = tuple(
        ClassConfig.markovian(2 ** p, arrival_rate=lam, service_rate=1.0 + p,
                              quantum_mean=1.0 + 0.5 * p,
                              overhead_mean=0.02 * (p + 1))
        for p in range(L))
    return SystemConfig(processors=4, classes=classes,
                        empty_queue_policy=policy)


class TestHeavyTrafficVacation:
    def test_theorem_4_1_mean(self):
        cfg = make_system(3)
        for p in range(3):
            v = heavy_traffic_vacation(cfg, p)
            expect = cfg.classes[p].overhead.mean
            for off in range(1, 3):
                n = (p + off) % 3
                expect += cfg.classes[n].quantum.mean
                expect += cfg.classes[n].overhead.mean
            assert v.mean == pytest.approx(expect)

    def test_theorem_4_1_order(self):
        cfg = make_system(3)
        v = heavy_traffic_vacation(cfg, 0)
        # N = sum_{n != p} M_n + sum_n m_{C_n}; all exponential here.
        assert v.order == 2 + 3

    def test_single_class_is_just_overhead(self):
        cfg = SystemConfig(processors=2, classes=(
            ClassConfig.markovian(1, arrival_rate=0.3, service_rate=1.0,
                                  quantum_mean=1.0, overhead_mean=0.5),))
        v = heavy_traffic_vacation(cfg, 0)
        assert v.mean == pytest.approx(0.5)
        assert v.order == 1

    def test_variance_adds(self):
        cfg = make_system(2)
        v = heavy_traffic_vacation(cfg, 0)
        expect = (cfg.classes[0].overhead.variance
                  + cfg.classes[1].quantum.variance
                  + cfg.classes[1].overhead.variance)
        assert v.variance == pytest.approx(expect)


class TestFixedPointVacation:
    def test_uses_effective_quanta(self):
        cfg = make_system(3)
        eff = {n: exponential(mean=0.2) for n in range(3)}
        v = fixed_point_vacation(cfg, 0, eff)
        expect = (cfg.classes[0].overhead.mean
                  + 0.2 + cfg.classes[1].overhead.mean
                  + 0.2 + cfg.classes[2].overhead.mean)
        assert v.mean == pytest.approx(expect)

    def test_atom_in_quanta_is_fine(self):
        cfg = make_system(2)
        eff = {n: PhaseType([0.3], [[-5.0]]) for n in range(2)}
        v = fixed_point_vacation(cfg, 0, eff)
        # Convolution starts with a proper overhead: no atom overall.
        assert v.atom_at_zero == pytest.approx(0.0)


class TestEffectiveQuantum:
    @pytest.fixture
    def solved(self):
        cfg = make_system(2, lam=0.4)
        res = run_fixed_point(cfg, FixedPointOptions(heavy_traffic_only=True))
        return cfg, res

    def test_stochastically_shorter_than_quantum(self, solved):
        cfg, res = solved
        for p in range(2):
            eq = effective_quantum(res.spaces[p], res.processes[p],
                                   res.solutions[p], res.vacations[p])
            assert eq.mean < cfg.classes[p].quantum.mean
            # Survival dominated by the raw quantum at a few points.
            for x in (0.5, 1.0, 2.0):
                assert eq.sf(x) <= cfg.classes[p].quantum.sf(x) + 1e-9

    def test_atom_is_skip_probability(self, solved):
        cfg, res = solved
        eq = effective_quantum(res.spaces[0], res.processes[0],
                               res.solutions[0], res.vacations[0])
        assert 0.0 < eq.atom_at_zero < 1.0

    def test_idle_policy_has_no_atom(self):
        cfg = make_system(2, lam=0.4, policy="idle")
        res = run_fixed_point(cfg, FixedPointOptions(heavy_traffic_only=True))
        eq = effective_quantum(res.spaces[0], res.processes[0],
                               res.solutions[0], res.vacations[0])
        assert eq.atom_at_zero == pytest.approx(0.0, abs=1e-12)

    def test_truncation_insensitive(self, solved):
        cfg, res = solved
        a = effective_quantum(res.spaces[0], res.processes[0],
                              res.solutions[0], res.vacations[0],
                              truncation_mass=1e-6)
        b = effective_quantum(res.spaces[0], res.processes[0],
                              res.solutions[0], res.vacations[0],
                              truncation_mass=1e-12)
        assert a.mean == pytest.approx(b.mean, rel=1e-4)


class TestReduceOrder:
    def test_exact_is_identity(self):
        d = erlang(3, mean=1.0)
        assert reduce_order(d, "exact") is d

    def test_moments2_matches(self):
        d = erlang(3, mean=2.0)
        r = reduce_order(d, "moments2")
        assert r.mean == pytest.approx(d.mean, rel=1e-9)
        assert r.scv == pytest.approx(d.scv, rel=1e-8)

    def test_moments3_matches(self):
        # A distribution with scv > 1 (feasible for Coxian-2).
        from repro.phasetype import hyperexponential
        d = hyperexponential([0.3, 0.7], [0.4, 2.0])
        r = reduce_order(d, "moments3")
        for k in (1, 2, 3):
            assert r.moment(k) == pytest.approx(d.moment(k), rel=1e-4)

    def test_atom_preserved(self):
        d = PhaseType([0.6, 0.0], np.array([[-1.0, 1.0], [0.0, -2.0]]))
        r = reduce_order(d, "moments2")
        assert r.atom_at_zero == pytest.approx(d.atom_at_zero, abs=1e-12)
        assert r.mean == pytest.approx(d.mean, rel=1e-9)

    def test_pure_atom(self):
        d = PhaseType([0.0], [[-1.0]])
        r = reduce_order(d, "moments2")
        assert r.atom_at_zero == pytest.approx(1.0)

    def test_unknown_reduction(self):
        with pytest.raises(ValidationError):
            reduce_order(exponential(1.0), "pca")

    def test_reductions_constant_complete(self):
        assert set(REDUCTIONS) == {"exact", "moments2", "moments3"}
