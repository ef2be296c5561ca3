"""Bit identity of the batched sweep engine with the per-point one.

The batched engine (:mod:`repro.workloads.batched`) must be an
*implementation detail*: its lockstep solves return the exact numbers
of per-point solves on any grid shape — non-monotone, duplicated, or
both — and on every figure preset, and a killed batched sweep resumed
from its checkpoint store replays the exact bytes an uninterrupted run
produces.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ClassConfig, SystemConfig
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


def _assert_points_equal(batched, serial):
    """The batched points carry the per-point engine's exact numbers."""
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
        """Batched results equal per-point solves exactly, iteration
        counts included, on grids with duplicates and arbitrary
        (non-monotone) order."""
        batched = sweep("lambda", grid, tiny_config, batch=batch)
        serial = sweep("lambda", grid, tiny_config)
        _assert_points_equal(batched, serial)

    def test_duplicate_values_solved_once_identical(self):
        """Duplicated grid values yield the per-point metrics, once per
        slot."""
        grid = [0.9, 0.3, 0.9, 0.3]
        res = sweep("lambda", grid, tiny_config, batch=4)
        a, b, c, d = res.points
        assert a.mean_jobs == c.mean_jobs
        assert a.mean_response_time == c.mean_response_time
        assert b.mean_jobs == d.mean_jobs
        _assert_points_equal(res, sweep("lambda", grid, tiny_config))

    def test_non_monotone_grid_keeps_input_order(self):
        grid = [0.9, 0.3, 0.6]
        res = sweep("lambda", grid, tiny_config, batch=3)
        assert res.values() == grid
        cold = sweep("lambda", grid, tiny_config)
        _assert_points_equal(res, cold)

    def test_provenance_fields(self):
        """Batched points carry their wall time and start cold;
        per-point points leave ``warm`` unset."""
        grid = [0.3, 0.45, 0.6, 0.75]
        res = sweep("lambda", grid, tiny_config, batch=4)
        assert all(p.solve_seconds is not None and p.solve_seconds >= 0
                   for p in res.points)
        assert all(p.warm is False for p in res.points)
        serial = sweep("lambda", grid[:2], tiny_config)
        assert all(p.solve_seconds is not None for p in serial.points)
        assert all(p.warm is None for p in serial.points)


class TestFigureParity:
    @pytest.mark.parametrize("number", [2, 3, 4, 5])
    def test_figure_presets_match_per_point(self, number):
        """Every preset of the figure, at the default tier, batched four
        points at a time, serializes to the per-point run's payload."""
        for sc in figure_scenarios(number):
            batched = run(sc.with_engine(batch_points=4))
            assert run_result_to_dict(batched) == run_result_to_dict(run(sc))


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
        from repro.workloads import batched

        grid = (0.3, 0.45, 0.6)
        clean = sweep("lambda", grid, tiny_config, batch=3)
        real = batched.extract_effective_quanta

        def poisoned(space, jobs, **kwargs):
            # ``A0`` carries the arrival rate: refuse the 0.45 chain.
            if any(job[0].A0.max() == 0.45 for job in jobs):
                raise ValidationError("no probability flow into quantum "
                                      "starts; the chain never serves")
            return real(space, jobs, **kwargs)

        monkeypatch.setattr(batched, "extract_effective_quanta", poisoned)
        got = sweep("lambda", grid, tiny_config, batch=3)
        assert [p.error is None for p in got.points] == [True, False, True]
        assert "ValidationError" in got.points[1].error
        for i in (0, 2):
            assert got.points[i].mean_jobs == clean.points[i].mean_jobs
            assert got.points[i].iterations == clean.points[i].iterations
