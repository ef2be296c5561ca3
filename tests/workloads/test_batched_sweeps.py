"""Continuation correctness of the batched sweep engine.

The batched engine (:mod:`repro.workloads.batched`) must be an
*implementation detail*: warm-started lockstep solves agree with cold
per-point solves to 1e-8 on any grid shape — non-monotone, duplicated,
or both — and a killed batched sweep resumed from its journal replays
the exact bytes an uninterrupted run produces.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ClassConfig, SystemConfig
from repro.resilience import faults
from repro.workloads import sweep

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


def _assert_points_close(batched, serial, tol=1e-8):
    assert len(batched.points) == len(serial.points)
    for bp, sp in zip(batched.points, serial.points):
        assert bp.value == sp.value
        assert bp.error is None and sp.error is None
        assert bp.iterations == sp.iterations
        assert bp.converged == sp.converged
        for b, s in zip(bp.mean_jobs + bp.mean_response_time,
                        sp.mean_jobs + sp.mean_response_time):
            assert b == pytest.approx(s, rel=tol, abs=tol)


class TestContinuationParity:
    @given(grid=st.lists(st.sampled_from(LOAD_POOL),
                         min_size=3, max_size=6))
    @settings(max_examples=10, deadline=None)
    def test_matches_cold_per_point_on_any_grid(self, grid):
        """Warm-started batched results track cold solves to 1e-8, with
        the same iteration counts, on grids with duplicates and
        arbitrary (non-monotone) order."""
        batched = sweep("lambda", grid, tiny_config, batch=3)
        serial = sweep("lambda", grid, tiny_config)
        _assert_points_close(batched, serial)

    def test_duplicate_values_solved_once_identical(self):
        """Duplicated grid values yield byte-identical point metrics."""
        res = sweep("lambda", [0.9, 0.3, 0.9, 0.3], tiny_config, batch=4)
        a, b, c, d = res.points
        assert a.mean_jobs == c.mean_jobs
        assert a.mean_response_time == c.mean_response_time
        assert b.mean_jobs == d.mean_jobs

    def test_non_monotone_grid_keeps_input_order(self):
        grid = [0.9, 0.3, 0.6]
        res = sweep("lambda", grid, tiny_config, batch=3)
        assert res.values() == grid
        cold = sweep("lambda", grid, tiny_config)
        _assert_points_close(res, cold)

    def test_provenance_fields(self):
        """Batched points carry wall time and warm/cold status; chunk
        heads start cold, tails warm-start from the head."""
        grid = [0.3, 0.45, 0.6, 0.75]
        res = sweep("lambda", grid, tiny_config, batch=4)
        assert all(p.solve_seconds is not None and p.solve_seconds >= 0
                   for p in res.points)
        warms = [p.warm for p in res.points]  # grid order == sorted here
        assert warms[0] is False
        assert all(w is True for w in warms[1:])
        serial = sweep("lambda", grid[:2], tiny_config)
        assert all(p.solve_seconds is not None for p in serial.points)
        assert all(p.warm is None for p in serial.points)


class TestKillAndResume:
    GRID = [0.3, 0.45, 0.6, 0.75, 0.9, 1.05]

    def test_killed_batched_sweep_resumes_byte_identical(self, tmp_path):
        clean_path = tmp_path / "clean.jsonl"
        crash_path = tmp_path / "crash.jsonl"
        clean = sweep("lambda", self.GRID, tiny_config, batch=3,
                      checkpoint=clean_path)

        # Kill inside the second chunk: fault sites fire before the
        # chunk solves, so the whole second chunk is lost and only the
        # first chunk's three points survive in the journal.
        with faults.inject("sweeps.point", raises=KeyboardInterrupt,
                           keys=(0.9,)):
            with pytest.raises(KeyboardInterrupt):
                sweep("lambda", self.GRID, tiny_config, batch=3,
                      checkpoint=crash_path)
        resumed = sweep("lambda", self.GRID, tiny_config, batch=3,
                        checkpoint=crash_path)

        assert resumed.resumed == 3
        assert resumed.points == clean.points
        # Byte-level: every numeric field matches exactly — the
        # resumed tail re-solved from the journaled continuation seed.
        for rp, cp in zip(resumed.points, clean.points):
            assert rp.mean_jobs == cp.mean_jobs
            assert rp.mean_response_time == cp.mean_response_time
            assert rp.iterations == cp.iterations
        assert resumed.render() == clean.render()
        assert crash_path.read_bytes() == clean_path.read_bytes()

    def test_resume_skips_all_solves(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        sweep("lambda", self.GRID, tiny_config, batch=3, checkpoint=path)
        # Journals from older releases carry a ``probe`` timing object
        # on chunk-head records; they must still load and resume.
        lines = path.read_text().splitlines()
        head = json.loads(lines[1])
        head["probe"] = {"backend": "dense",
                         "stage_seconds": {"assemble": 0.01, "rsolve": 0.02}}
        lines[1] = json.dumps(head)
        path.write_text("\n".join(lines) + "\n")
        with faults.inject("sweeps.point", raises=RuntimeError) as spec:
            second = sweep("lambda", self.GRID, tiny_config, batch=3,
                           checkpoint=path)
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
