"""Tests for the analytic batch-arrival gang model."""

import numpy as np
import pytest

from repro.core import (
    BatchGangSchedulingModel,
    ClassConfig,
    GangSchedulingModel,
    SystemConfig,
)
from repro.errors import UnstableSystemError, ValidationError
from repro.sim import BatchArrivalGangSimulation


def single_class(lam=0.5, mu=1.0, c=2, q=2.0, oh=0.3):
    return SystemConfig(processors=c, classes=(
        ClassConfig.markovian(1, arrival_rate=lam, service_rate=mu,
                              quantum_mean=q, overhead_mean=oh),))


class TestConstruction:
    def test_pmf_validated(self):
        cfg = single_class()
        with pytest.raises(ValidationError):
            BatchGangSchedulingModel(cfg, [[0.5, 0.4]])
        with pytest.raises(ValidationError):
            BatchGangSchedulingModel(cfg, [[1.0], [1.0]])

    def test_batch_statistics(self):
        model = BatchGangSchedulingModel(single_class(), [[0.25, 0.5, 0.25]])
        assert model.mean_batch_size(0) == pytest.approx(2.0)
        assert model.job_arrival_rate(0) == pytest.approx(1.0)


class TestDegenerateBatch:
    def test_reduces_to_plain_model(self):
        cfg = single_class()
        plain = GangSchedulingModel(cfg).solve()
        batch = BatchGangSchedulingModel(cfg, [[1.0]]).solve()
        assert batch.mean_jobs(0) == pytest.approx(plain.mean_jobs(0),
                                                   rel=1e-8)

    def test_two_class_degenerate(self, two_class_config):
        plain = GangSchedulingModel(two_class_config).solve()
        batch = BatchGangSchedulingModel(
            two_class_config, [[1.0], [1.0]]).solve(max_iterations=120)
        for p in range(2):
            assert batch.mean_jobs(p) == pytest.approx(plain.mean_jobs(p),
                                                       rel=1e-3)


class TestAgainstSimulation:
    def test_single_class_exact_regime(self):
        """L=1 has no decomposition approximation: model == simulation."""
        pmf = [0.4, 0.35, 0.25]
        cfg = single_class(lam=0.25)
        model = BatchGangSchedulingModel(cfg, [pmf]).solve()
        sims = [BatchArrivalGangSimulation(cfg, [pmf], seed=s,
                                           warmup=2000.0).run(40_000.0)
                .mean_jobs[0] for s in range(4)]
        assert model.mean_jobs(0) == pytest.approx(np.mean(sims), rel=0.05)

    def test_littles_law_with_job_rate(self):
        pmf = [0.5, 0.5]
        cfg = single_class(lam=0.3)
        model = BatchGangSchedulingModel(cfg, [pmf])
        solved = model.solve()
        n = solved.mean_jobs(0)
        t = solved.classes[0].mean_response_time
        assert n == pytest.approx(model.job_arrival_rate(0) * t, rel=1e-12)


class TestBatchEffects:
    def test_batching_increases_congestion_at_equal_load(self):
        # Same job rate: singles at rate 0.5 vs pairs at rate 0.25.
        singles = BatchGangSchedulingModel(
            single_class(lam=0.5), [[1.0]]).solve()
        pairs = BatchGangSchedulingModel(
            single_class(lam=0.25), [[0.0, 1.0]]).solve()
        assert pairs.mean_jobs(0) > singles.mean_jobs(0)

    def test_bigger_batches_worse(self):
        base = single_class(lam=0.2)
        two = BatchGangSchedulingModel(base, [[0.0, 1.0]]).solve()
        four = BatchGangSchedulingModel(base, [[0.0, 0.0, 0.0, 1.0]]).solve()
        # Quadruple the batch at the same epoch rate: double the load
        # AND double the burstiness.
        assert four.mean_jobs(0) > 2 * two.mean_jobs(0)

    def test_unstable_batch_load_raises(self):
        # Epoch rate fine, batch factor pushes rho over 1.
        cfg = single_class(lam=0.6, c=1)
        with pytest.raises(UnstableSystemError):
            BatchGangSchedulingModel(cfg, [[0.0, 0.0, 1.0]]).solve()

    def test_multiclass_batches_solve(self, two_class_config):
        model = BatchGangSchedulingModel(
            two_class_config, [[0.7, 0.3], [1.0]])
        solved = model.solve(max_iterations=80)
        assert solved.mean_jobs() > 0
        # Batches on class 0 make it worse than its single-arrival self
        # at the same epoch rate.
        plain = GangSchedulingModel(two_class_config).solve()
        assert solved.mean_jobs(0) > plain.mean_jobs(0)


class TestIterationBudget:
    def test_zero_iterations_runs_one_pass(self):
        # A zero budget still runs one pass, as run_lockstep does,
        # instead of failing on a never-assigned state.
        model = BatchGangSchedulingModel(single_class(), [[0.5, 0.5]])
        zero = model.solve(max_iterations=0)
        one = model.solve(max_iterations=1)
        assert zero.iterations == one.iterations == 1
        assert not zero.converged
        assert zero.mean_jobs(0) == one.mean_jobs(0)


class TestPhaseService:
    def test_multinomial_entry_with_erlang_service(self):
        """Batch jobs drawing Erlang service phases: brute-force check."""
        from repro.phasetype import erlang, exponential
        cfg = SystemConfig(processors=2, classes=(
            ClassConfig(partition_size=1,
                        arrival=exponential(0.2),
                        service=erlang(2, mean=1.0),
                        quantum=exponential(mean=2.0),
                        overhead=exponential(mean=0.3)),))
        pmf = [0.5, 0.5]
        model = BatchGangSchedulingModel(cfg, [pmf]).solve()
        sims = [BatchArrivalGangSimulation(cfg, [pmf], seed=s,
                                           warmup=2000.0).run(40_000.0)
                .mean_jobs[0] for s in range(4)]
        assert model.mean_jobs(0) == pytest.approx(np.mean(sims), rel=0.06)
