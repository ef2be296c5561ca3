"""Bit identity of lockstep sweep chunks at every width.

A sweep's chunk width (:mod:`repro.workloads.batched`) must be an
*implementation detail*: chunked solves return the exact numbers of
one-point-at-a-time solves on any grid shape — non-monotone,
duplicated, or both — and on every figure preset, and a killed chunked
sweep resumed from its checkpoint store replays the exact bytes an
uninterrupted run produces.  Each chunk's points keep the records of a
single solve (solve reports, failure isolation) and hold at most one
extraction stack at a time.
"""

from __future__ import annotations

import time
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ClassConfig, SystemConfig
from repro.core.model import GangSchedulingModel
from repro.errors import ConvergenceError
from repro.resilience import faults
from repro.scenario import (
    EngineSpec,
    Scenario,
    SweepAxis,
    SystemSpec,
    canonical_bytes,
    figure_scenarios,
    run,
    run_result_to_dict,
)
from repro.workloads import sweep
from tests.store_records import store_records

#: A pool of stable loads for ``tiny_config``; sampling with
#: replacement forces duplicate grid values, permutation strategies
#: force non-monotone orderings.
LOAD_POOL = (0.3, 0.45, 0.6, 0.75, 0.9, 1.05)


def tiny_config(lam):
    return SystemConfig(processors=2, classes=(
        ClassConfig.markovian(1, arrival_rate=lam, service_rate=1.0,
                              quantum_mean=2.0, overhead_mean=0.01,
                              name="only"),
    ))


def two_class_config(lam):
    return SystemConfig(processors=4, classes=(
        ClassConfig.markovian(1, arrival_rate=lam, service_rate=0.5,
                              quantum_mean=1.5, overhead_mean=0.05),
        ClassConfig.markovian(4, arrival_rate=0.8 * lam, service_rate=2.0,
                              quantum_mean=1.5, overhead_mean=0.05),
    ))


def _assert_points_equal(batched, serial):
    """The chunked points carry the one-at-a-time sweep's exact numbers."""
    assert len(batched.points) == len(serial.points)
    for bp, sp in zip(batched.points, serial.points):
        assert bp.error is None and sp.error is None
        for name in ("value", "mean_jobs", "mean_response_time",
                     "iterations", "converged", "error"):
            assert getattr(bp, name) == getattr(sp, name), name


class TestContinuationParity:
    @given(grid=st.lists(st.sampled_from(LOAD_POOL),
                         min_size=3, max_size=6),
           batch=st.integers(2, 4))
    @settings(max_examples=10, deadline=None)
    def test_matches_cold_per_point_on_any_grid(self, grid, batch):
        """Chunked results equal one-at-a-time solves exactly, iteration
        counts included, on grids with duplicates and arbitrary
        (non-monotone) order."""
        batched = sweep("lambda", grid, tiny_config, batch=batch)
        serial = sweep("lambda", grid, tiny_config, batch=1)
        _assert_points_equal(batched, serial)

    def test_duplicate_values_solved_once_identical(self):
        """Duplicated grid values yield the one-at-a-time metrics, once
        per slot."""
        grid = [0.9, 0.3, 0.9, 0.3]
        res = sweep("lambda", grid, tiny_config, batch=4)
        a, b, c, d = res.points
        assert a.mean_jobs == c.mean_jobs
        assert a.mean_response_time == c.mean_response_time
        assert b.mean_jobs == d.mean_jobs
        _assert_points_equal(res, sweep("lambda", grid, tiny_config,
                                        batch=1))

    def test_non_monotone_grid_keeps_input_order(self):
        grid = [0.9, 0.3, 0.6]
        res = sweep("lambda", grid, tiny_config, batch=3)
        assert res.values() == grid
        cold = sweep("lambda", grid, tiny_config, batch=1)
        _assert_points_equal(res, cold)

    def test_provenance_fields(self):
        """Every point, at any width, carries its share of its chunk's
        wall time and starts cold."""
        grid = [0.3, 0.45, 0.6, 0.75]
        for batch in (4, 1, None):
            res = sweep("lambda", grid, tiny_config, batch=batch)
            assert all(p.solve_seconds is not None and p.solve_seconds >= 0
                       for p in res.points)
            assert all(p.warm is False for p in res.points)


def _hex_dump(result) -> list[tuple]:
    return [tuple(float(v).hex() for v in pt.mean_jobs
                  + pt.mean_response_time) + (pt.iterations, pt.converged)
            for pt in result.points]


class TestFigureParity:
    @pytest.mark.parametrize("number", [2, 3, 4, 5])
    def test_figure_presets_match_per_point(self, number):
        """Every preset of the figure, at the default tier, gives the
        same bits one point at a time, 3 and 8 points at a time, and at
        the default width."""
        for sc in figure_scenarios(number):
            dumps = {width: _hex_dump(run(sc.with_engine(batch_points=width)))
                     for width in (1, 3, 8, 0)}
            assert dumps[3] == dumps[1], sc.name
            assert dumps[8] == dumps[1], sc.name
            assert dumps[0] == dumps[1], sc.name


class TestSolveBudgetParity:
    @pytest.mark.parametrize("number", [2, 5])
    def test_generous_budget_keeps_every_bit(self, number, monkeypatch):
        """A budgeted job solves ``R`` on the stacked kernels like an
        unbudgeted one, with no serial chain call; a budget that does
        not bind changes no number (the daemon stores a budgeted point
        under its unbudgeted key)."""
        from repro.pipeline import stages

        chain_calls = []
        solve = stages.resilient_solve_R

        def counted(*args, **kwargs):
            chain_calls.append(kwargs.get("budget"))
            return solve(*args, **kwargs)

        monkeypatch.setattr(stages, "resilient_solve_R", counted)
        for sc in figure_scenarios(number, grid="quick"):
            plain = _hex_dump(run(sc))
            budgeted = _hex_dump(run(sc.with_engine(solve_budget=60.0)))
            assert budgeted == plain, sc.name
        assert chain_calls == []


class TestChainEqualsStage:
    @pytest.mark.parametrize("number", [2, 5])
    def test_every_job_through_the_chain_keeps_every_bit(self, number,
                                                         monkeypatch):
        """An identity corruption armed at ``rmatrix.result`` changes no
        ``R`` but keeps every job off the stack (``stages._stackable``),
        so each job is solved by ``resilient_solve_R``, whose
        logarithmic reduction is the stacked kernel on a stack of one:
        the sweep keeps every bit of the default run."""
        from repro.pipeline import stages

        calls = {"chain": 0, "stacked": 0}
        chain, stacked = stages.resilient_solve_R, stages.bk.batched_solve_R

        def count_chain(*args, **kwargs):
            calls["chain"] += 1
            return chain(*args, **kwargs)

        def count_stacked(A0, *args, **kwargs):
            calls["stacked"] += A0.shape[0]
            return stacked(A0, *args, **kwargs)

        monkeypatch.setattr(stages, "resilient_solve_R", count_chain)
        monkeypatch.setattr(stages.bk, "batched_solve_R", count_stacked)
        for sc in figure_scenarios(number, grid="quick"):
            plain = _hex_dump(run(sc))
            jobs = calls["stacked"]
            calls.update(chain=0, stacked=0)
            with faults.inject("rmatrix.result", corrupt=lambda R: R):
                through_chain = _hex_dump(run(sc))
            assert through_chain == plain, sc.name
            assert calls == {"chain": jobs, "stacked": 0}, sc.name
            assert jobs > 0
            calls.update(chain=0, stacked=0)


class TestKillAndResume:
    GRID = (2.0, 3.0, 4.0, 6.0, 8.0, 12.0)

    def scenario(self, checkpoint) -> Scenario:
        return Scenario(
            name="fig4-batched",
            system=SystemSpec(preset="fig4",
                              axis=SweepAxis("service_rate", self.GRID)),
            engine=EngineSpec(batch_points=3, checkpoint=str(checkpoint)))

    def test_killed_batched_sweep_resumes_byte_identical(self, tmp_path):
        clean = run(self.scenario(tmp_path / "clean"))

        # Kill inside the second shard: fault sites fire before a chunk
        # solves, so the whole second shard is lost and only the first
        # shard's three points survive in the store.
        with faults.inject("sweeps.point", raises=KeyboardInterrupt,
                           keys=(self.GRID[4],)):
            with pytest.raises(KeyboardInterrupt):
                run(self.scenario(tmp_path / "crash"))
        resumed = run(self.scenario(tmp_path / "crash"))

        assert resumed.resumed == 3
        # Byte-level: the lost shard is solved again, every point cold,
        # and reproduces the uninterrupted numbers.
        assert resumed.points == clean.points
        assert canonical_bytes(run_result_to_dict(resumed)) \
            == canonical_bytes(run_result_to_dict(clean))
        assert store_records(tmp_path / "crash") \
            == store_records(tmp_path / "clean")

    def test_resume_skips_all_solves(self, tmp_path):
        run(self.scenario(tmp_path / "cp"))
        with faults.inject("sweeps.point", raises=RuntimeError) as spec:
            second = run(self.scenario(tmp_path / "cp"))
        assert spec.fired == 0
        assert second.resumed == len(self.GRID)


class TestExtractionIsolation:
    def test_failing_extraction_fails_only_its_point(self, monkeypatch):
        """A space group whose stacked extraction raises is extracted
        again one class at a time: only the point that cannot be
        extracted fails, and the others keep their exact numbers."""
        from repro.errors import ValidationError
        from repro.pipeline import stages

        grid = (0.3, 0.45, 0.6)
        clean = sweep("lambda", grid, tiny_config, batch=3)
        real = stages.extract_effective_quanta

        def poisoned(space, jobs, **kwargs):
            # ``A0`` carries the arrival rate: refuse the 0.45 chain.
            if any(job[0].A0.max() == 0.45 for job in jobs):
                raise ValidationError("no probability flow into quantum "
                                      "starts; the chain never serves")
            return real(space, jobs, **kwargs)

        monkeypatch.setattr(stages, "extract_effective_quanta", poisoned)
        got = sweep("lambda", grid, tiny_config, batch=3)
        assert [p.error is None for p in got.points] == [True, False, True]
        assert "ValidationError" in got.points[1].error
        for i in (0, 2):
            assert got.points[i].mean_jobs == clean.points[i].mean_jobs
            assert got.points[i].iterations == clean.points[i].iterations


class TestChunkRecords:
    def test_every_stable_class_carries_a_solve_report(self, monkeypatch):
        """A chunked point keeps the resilience record of a single
        solve: every stable class names the method that solved it."""
        package = GangSchedulingModel._package
        raws = []

        def capture(model, raw):
            raws.append(raw)
            return package(model, raw)

        monkeypatch.setattr(GangSchedulingModel, "_package", capture)
        for sc in figure_scenarios(5):
            run(sc.with_engine(batch_points=8))
        assert raws
        stable = [sol for raw in raws
                  for sol, sat in zip(raw.solutions, raw.saturated)
                  if not sat]
        assert stable and any(any(raw.saturated) for raw in raws)
        for sol in stable:
            assert sol.solve_report is not None
            assert sol.solve_report.method == "logreduction"
            assert sol.solve_report.attempts[0].outcome == "ok"

    def test_one_extraction_stack_alive_at_a_time(self, monkeypatch):
        """Raw quanta are views into their extraction stack; each is
        reduced and dropped before the next stack is built, so an
        8-point chunk never holds two stacks."""
        from repro.phasetype import PhaseType
        from repro.pipeline import extract

        stacks: list[weakref.ref] = []     # one per stack, in order
        most = [0]

        class Watched(PhaseType):
            @classmethod
            def from_trusted(cls, alpha, S):
                base = S.base
                if not stacks or stacks[-1]() is not base:
                    stacks.append(weakref.ref(base))
                alive = sum(r() is not None for r in stacks)
                most[0] = max(most[0], alive)
                return PhaseType.from_trusted(alpha, S)

        monkeypatch.setattr(extract, "PhaseType", Watched)
        grid = [0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45]
        res = sweep("lambda", grid, two_class_config, batch=8)
        assert all(p.error is None for p in res.points)
        assert len(stacks) > 2 * max(p.iterations for p in res.points)
        assert most[0] == 1

    def test_expired_solve_budget_fails_only_its_point(self):
        """One chunk-mate's R solve overruns its wall-clock budget: that
        point fails with SolverBudgetExceededError, and its neighbours
        keep the bits of a clean run."""
        budget = 0.05
        kwargs = {"model_kwargs": {"solve_budget": budget}, "batch": 3}
        grid = (0.3, 0.45, 0.6)
        clean = sweep("lambda", grid, tiny_config, **kwargs)

        def overrun():
            time.sleep(2 * budget)
            return ConvergenceError("injected slow attempt")

        # The armed fault sends every job to the resilience chain, one
        # class at a time in point order: the second call is the middle
        # point, and its budget expires there.
        with faults.inject("rmatrix.solve", raises=overrun,
                           keys=("logreduction",), calls={1}):
            got = sweep("lambda", grid, tiny_config, **kwargs)
        assert got.points[1].error.startswith("SolverBudgetExceededError")
        for i in (0, 2):
            assert got.points[i].error is None
            for name in ("mean_jobs", "mean_response_time", "iterations"):
                assert getattr(got.points[i], name) \
                    == getattr(clean.points[i], name), name
