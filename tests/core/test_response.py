"""Tests for the tagged-job response-time distribution."""

import functools
import math

import numpy as np
import pytest

from repro.core import (
    ClassConfig,
    GangSchedulingModel,
    SystemConfig,
    response_time_distribution,
    waiting_time_distribution,
)
from repro.core.response import LevelPhaseType, waiting_from_response
from repro.errors import NotAPhaseTypeError, ValidationError
from repro.phasetype import PhaseType, erlang, exponential
from repro.scenario import get_scenario
from tests.core.response_oracle import dense_response_law, dense_waiting_law


def single_class(lam=0.6, mu=1.0, c=2, q=2.0, oh=0.3):
    return SystemConfig(processors=c, classes=(
        ClassConfig.markovian(1, arrival_rate=lam, service_rate=mu,
                              quantum_mean=q, overhead_mean=oh),))


class TestMeanConsistency:
    """The tagged-job mean must equal Little's law — two entirely
    independent computations."""

    @pytest.mark.parametrize("lam,c,q,oh", [
        (0.6, 2, 2.0, 0.3),
        (0.3, 1, 1.0, 0.1),
        (1.5, 4, 3.0, 0.05),
    ])
    def test_single_class(self, lam, c, q, oh):
        cfg = single_class(lam=lam, c=c, q=q, oh=oh)
        sol = GangSchedulingModel(cfg).solve()
        rt = response_time_distribution(sol, 0)
        assert rt.mean == pytest.approx(sol.mean_response_time(0), rel=1e-7)

    def test_multiclass(self, two_class_config):
        sol = GangSchedulingModel(two_class_config).solve()
        for p in range(2):
            rt = response_time_distribution(sol, p)
            assert rt.mean == pytest.approx(sol.mean_response_time(p),
                                            rel=1e-6)


class TestMM1Limit:
    def test_exponential_response(self):
        """M/M/1 limit: response time ~ Exp(mu - lam)."""
        cfg = SystemConfig(processors=1, classes=(
            ClassConfig.markovian(1, arrival_rate=0.5, service_rate=1.0,
                                  quantum_mean=100.0, overhead_mean=1e-5),))
        sol = GangSchedulingModel(cfg).solve()
        rt = response_time_distribution(sol, 0)
        rate = 1.0 - 0.5
        for x in (0.5, 1.0, 3.0):
            assert rt.sf(x) == pytest.approx(math.exp(-rate * x), abs=2e-3)


class TestAgainstSimulation:
    def test_quantiles_match_sim(self):
        from repro.sim import GangSimulation
        cfg = single_class()
        sol = GangSchedulingModel(cfg).solve()
        rt = response_time_distribution(sol, 0)
        rep = GangSimulation(cfg, seed=9, warmup=3000.0).run(60_000.0)
        q50, q95, q99 = rep.response_quantiles[0]
        assert rt.quantile(0.5) == pytest.approx(q50, rel=0.05)
        assert rt.quantile(0.95) == pytest.approx(q95, rel=0.05)


class TestValidation:
    def test_requires_exponential_service(self):
        cfg = SystemConfig(processors=2, classes=(
            ClassConfig(partition_size=1, arrival=exponential(0.3),
                        service=erlang(2, mean=1.0),
                        quantum=exponential(mean=2.0),
                        overhead=exponential(mean=0.1)),))
        sol = GangSchedulingModel(cfg).solve()
        with pytest.raises(ValidationError, match="exponential"):
            response_time_distribution(sol, 0)

    def test_requires_poisson_arrivals(self):
        from repro.phasetype import hyperexponential
        cfg = SystemConfig(processors=2, classes=(
            ClassConfig(partition_size=1,
                        arrival=hyperexponential([0.5, 0.5], [0.2, 1.0]),
                        service=exponential(1.0),
                        quantum=exponential(mean=2.0),
                        overhead=exponential(mean=0.1)),))
        sol = GangSchedulingModel(cfg).solve()
        with pytest.raises(ValidationError, match="PASTA"):
            response_time_distribution(sol, 0)

    def test_saturated_class_rejected(self):
        cfg = SystemConfig(processors=2, classes=(
            ClassConfig.markovian(1, arrival_rate=4.0, service_rate=1.0,
                                  quantum_mean=1.0, overhead_mean=0.01,
                                  name="hot"),
            ClassConfig.markovian(2, arrival_rate=0.1, service_rate=2.0,
                                  quantum_mean=1.0, overhead_mean=0.01,
                                  name="cool"),
        ))
        sol = GangSchedulingModel(cfg).solve()
        with pytest.raises(ValidationError, match="saturated"):
            response_time_distribution(sol, 0)


class TestWaitingTime:
    @pytest.fixture
    def solved(self):
        return GangSchedulingModel(single_class()).solve()

    def test_waiting_below_response(self, solved):
        rt = response_time_distribution(solved, 0)
        wt = waiting_time_distribution(solved, 0)
        assert wt.mean < rt.mean
        # Response = waiting + (interrupted) service >= waiting + E[B].
        assert rt.mean - wt.mean >= 1.0 / solved.config.classes[0].service_rate - 1e-9

    def test_zero_wait_atom(self, solved):
        """Arrivals to a free partition mid-quantum wait zero."""
        wt = waiting_time_distribution(solved, 0)
        assert 0.0 < wt.atom_at_zero < 1.0

    def test_atom_matches_stationary_probability(self, solved):
        # P(wait = 0) = P(arrival sees m0 <= c AND quantum running)
        # = stationary P(level < c, quantum phase) by PASTA.
        wt = waiting_time_distribution(solved, 0)
        space = solved.classes[0].space
        sol = solved.classes[0].stationary
        prob = 0.0
        for i in range(space.partitions):   # arrival makes m0 = i+1 <= c
            pi = sol.level(i)
            for j, (a, v, k) in enumerate(space.states(i)):
                if space.is_quantum_phase(k):
                    prob += pi[j]
        assert wt.atom_at_zero == pytest.approx(prob, rel=1e-9)

    def test_heavier_load_waits_longer(self):
        light = GangSchedulingModel(single_class(lam=0.3)).solve()
        heavy = GangSchedulingModel(single_class(lam=1.2)).solve()
        assert waiting_time_distribution(heavy, 0).mean > \
            waiting_time_distribution(light, 0).mean

    def test_waiting_against_simulation(self):
        """Mean wait and zero-wait fraction vs an instrumented run."""
        from repro.sim import GangSimulation

        class WaitSim(GangSimulation):
            def __init__(self, *a, **k):
                super().__init__(*a, **k)
                self.waits = []

            def _start_job(self, job):
                if job.work_done == 0.0 and not hasattr(job, "_started"):
                    job._started = True
                    if job.arrival_time >= self.warmup:
                        self.waits.append(self.sim.now - job.arrival_time)
                super()._start_job(job)

        cfg = single_class()
        solved = GangSchedulingModel(cfg).solve()
        wt = waiting_time_distribution(solved, 0)
        sim = WaitSim(cfg, seed=5, warmup=2000.0)
        sim.run(50_000.0)
        waits = np.asarray(sim.waits)
        assert wt.mean == pytest.approx(waits.mean(), rel=0.08)
        assert wt.atom_at_zero == pytest.approx(
            float(np.mean(waits < 1e-12)), abs=0.02)


class TestShape:
    def test_stochastic_ordering_in_load(self):
        """Heavier load: stochastically longer responses."""
        light = GangSchedulingModel(single_class(lam=0.3)).solve()
        heavy = GangSchedulingModel(single_class(lam=1.2)).solve()
        rt_l = response_time_distribution(light, 0)
        rt_h = response_time_distribution(heavy, 0)
        for x in (0.5, 1.0, 2.0, 5.0):
            assert rt_h.sf(x) >= rt_l.sf(x) - 1e-9

    def test_response_exceeds_service_time(self):
        """Response stochastically dominates the bare service demand."""
        cfg = single_class(lam=0.6, mu=1.0)
        sol = GangSchedulingModel(cfg).solve()
        rt = response_time_distribution(sol, 0)
        svc = exponential(1.0)
        for x in (0.5, 1.0, 3.0):
            assert rt.sf(x) >= svc.sf(x) - 1e-9


#: ``(lam, c, q, oh)`` of the single-class systems checked above.
SINGLE_CLASS = [(0.6, 2, 2.0, 0.3), (0.3, 1, 1.0, 0.1), (1.5, 4, 3.0, 0.05)]
PARITY_CASES = ([("fig2", p) for p in range(4)]
                + [(f"single{i}", 0) for i in range(len(SINGLE_CLASS))])


@functools.lru_cache(maxsize=None)
def _parity_solved(name):
    if name == "fig2":
        config = get_scenario("fig2").system.config_for(1.0)
    else:
        lam, c, q, oh = SINGLE_CLASS[int(name[len("single"):])]
        config = single_class(lam=lam, c=c, q=q, oh=oh)
    return GangSchedulingModel(config).solve()


def _assert_same_law(law, dense):
    """Survival function, p50/p99 and mean of the level law against the
    dense oracle's."""
    for t in (0.5, 1.0, 3.0, 5.0, 10.0):
        assert law.sf(t) == pytest.approx(dense.sf(t), rel=1e-12, abs=0.0)
    for q in (0.5, 0.99):
        assert law.quantile(q) == pytest.approx(dense.quantile(q), rel=1e-10)
    assert law.mean == pytest.approx(dense.mean, rel=1e-12)


@pytest.mark.parametrize("name,p", PARITY_CASES)
class TestDenseOracleParity:
    """The level law against the dense double loop it replaced
    (``tests/core/response_oracle.py``)."""

    def test_response_law(self, name, p):
        solved = _parity_solved(name)
        law = response_time_distribution(solved, p)
        dense = dense_response_law(solved, p)
        assert law.order == dense.order
        assert np.array_equal(law.alpha, dense.alpha)
        S, want = law.S, dense.S
        off = ~np.eye(law.order, dtype=bool)
        assert np.array_equal(S[off], want[off])
        assert np.allclose(np.diag(S), np.diag(want), rtol=1e-13, atol=0.0)
        assert law.condition == pytest.approx(np.linalg.cond(want, np.inf),
                                              rel=1e-10)
        _assert_same_law(law, dense)

    def test_waiting_law(self, name, p):
        solved = _parity_solved(name)
        space = solved.classes[p].space
        law = waiting_from_response(response_time_distribution(solved, p),
                                    space)
        dense = dense_waiting_law(dense_response_law(solved, p), space)
        assert law.order == dense.order
        assert law.atom_at_zero == pytest.approx(dense.atom_at_zero,
                                                 rel=1e-12, abs=0.0)
        _assert_same_law(law, dense)


class TestHeavyLoad:
    """Figure 3's heavy load (rho = 0.9): laws of order 4,284-5,712
    answer a p99 from their level blocks, without a dense ``S``."""

    def test_fig3_laws(self):
        config = get_scenario("fig3").system.config_for(2.0)
        solved = GangSchedulingModel(config).solve()
        orders = []
        for p, cls in enumerate(config.classes):
            law = response_time_distribution(solved, p)
            orders.append(law.order)
            little = solved.classes[p].mean_jobs / cls.arrival_rate
            # Little's law against the tagged chain, up to the 1e-10
            # truncation of the starting position.
            assert law.mean == pytest.approx(little, rel=1e-9)
            assert law.mean < law.quantile(0.99) < math.inf
            assert "_S" not in vars(law)
        assert orders == [4284, 4942, 5502, 5712]


def _chain(levels=4, vacation_exit=1.5):
    """Blocks of a small tagged-job-like chain: one quantum phase and
    two vacation phases; the second vacation phase returns to the
    quantum at rate ``vacation_exit``."""
    cycle = np.array([[0.0, 2.0, 0.0],
                      [0.0, 0.0, 3.0],
                      [vacation_exit, 0.5, 0.0]])
    down = np.zeros((levels, 3))
    down[1:, 0] = 1.0
    absorb = np.zeros((levels, 3))
    absorb[0, 0] = 1.0
    alpha = np.zeros((levels, 3))
    alpha[-1, 1] = 0.6
    alpha[1, 0] = 0.4
    return alpha, cycle, down, absorb


def _dense_generator(cycle, down, absorb):
    """The sub-generator of :func:`_chain`'s blocks, entry by entry."""
    levels, nk = down.shape
    S = np.zeros((levels * nk, levels * nk))
    for m in range(levels):
        for k in range(nk):
            i = m * nk + k
            for k2 in range(nk):
                if k2 != k:
                    S[i, m * nk + k2] = cycle[k, k2]
            if m:
                S[i, (m - 1) * nk + k] = down[m, k]
            S[i, i] = -(cycle[k].sum() + down[m, k] + absorb[m, k])
    return S


class TestConditioningGate:
    """Invertibility and conditioning come from the block substitution
    ``t = (-S)^{-1} e``, not from an SVD of the dense matrix."""

    def test_condition_number_is_exact(self):
        alpha, cycle, down, absorb = _chain()
        law = LevelPhaseType(alpha, cycle, down, absorb)
        S = _dense_generator(cycle, down, absorb)
        assert np.array_equal(law.S, S)
        assert law.condition == pytest.approx(np.linalg.cond(S, np.inf),
                                              rel=1e-10)
        dense = PhaseType(alpha.ravel(), S)
        assert law.mean == pytest.approx(dense.mean, rel=1e-12)
        assert law.moment(2) == pytest.approx(dense.moment(2), rel=1e-12)

    def test_recurrent_vacation_rejected(self):
        # The vacation phases pass the job between each other forever.
        alpha, cycle, down, absorb = _chain(vacation_exit=0.0)
        with pytest.raises(NotAPhaseTypeError, match="singular"):
            LevelPhaseType(alpha, cycle, down, absorb)

    def test_near_singular_chain_rejected(self):
        alpha, cycle, down, absorb = _chain(vacation_exit=1e-16)
        with pytest.raises(NotAPhaseTypeError, match="numerically singular"):
            LevelPhaseType(alpha, cycle, down, absorb)

    def test_waiting_target_is_a_proper_law(self):
        alpha, cycle, down, absorb = _chain()
        target = np.zeros(alpha.shape, dtype=bool)
        target[0, 0] = True
        law = LevelPhaseType(alpha, cycle, down, absorb).absorbed_at(target)
        keep = np.flatnonzero(~target.ravel())
        S = _dense_generator(cycle, down, absorb)[np.ix_(keep, keep)]
        dense = PhaseType(alpha.ravel()[keep], S)
        assert np.array_equal(law.S, S)
        assert law.condition == pytest.approx(np.linalg.cond(S, np.inf),
                                              rel=1e-10)
        assert law.mean == pytest.approx(dense.mean, rel=1e-12)
        assert law.sf(1.0) == pytest.approx(dense.sf(1.0), rel=1e-12)
