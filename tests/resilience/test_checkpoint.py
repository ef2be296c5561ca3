"""Checkpointed sweeps: a result-store directory as the sweep's journal.

A swept scenario whose engine sets ``checkpoint=DIR`` runs through
:func:`repro.scenario.run` as a client of the service's
:class:`~repro.service.store.ResultStore`: each completed shard's clean
points are appended durably, keyed by content
(:func:`~repro.scenario.hashing.point_key`), and a rerun serves them
from the store instead of solving.
"""

import json
import math

import pytest

from repro.errors import ValidationError
from repro.resilience import faults
from repro.scenario import (
    EngineSpec,
    Scenario,
    SweepAxis,
    SystemSpec,
    canonical_bytes,
    run,
    run_result_to_dict,
    scenario_key,
)
from repro.service.store import ResultStore
from tests.store_records import store_records

GRID = (2.0, 4.0, 8.0, 16.0)
UNSTABLE = 0.3      # a Figure 4 service rate that saturates every class


def fig4(checkpoint=None, grid=GRID, **engine) -> Scenario:
    return Scenario(
        name="fig4-small",
        system=SystemSpec(preset="fig4",
                          axis=SweepAxis("service_rate", grid)),
        engine=EngineSpec(checkpoint=None if checkpoint is None
                          else str(checkpoint), **engine))


def result_bytes(result) -> bytes:
    return canonical_bytes(run_result_to_dict(result))


def segment(root):
    (path,) = root.glob("seg-*.jsonl")
    return path


class TestJournal:
    def test_roundtrip(self, tmp_path):
        s = fig4(tmp_path / "cp")
        first = run(s)
        kinds = [kind for kind, _, _ in store_records(tmp_path / "cp")]
        assert kinds.count("point") == len(GRID)
        assert kinds.count("result") == 1
        with ResultStore(tmp_path / "cp") as store:
            assert store.get_result(scenario_key(s)) \
                == run_result_to_dict(first)

    def test_missing_file_loads_empty(self, tmp_path):
        root = tmp_path / "nested" / "cp"
        res = run(fig4(root))
        assert res.resumed == 0 and len(res.points) == len(GRID)
        assert root.is_dir() and segment(root).exists()

    def test_truncated_final_line_dropped(self, tmp_path):
        root = tmp_path / "cp"
        first = run(fig4(root))
        with open(segment(root), "a") as fh:
            fh.write('{"kind":"point","key":"ab')     # crash mid-write
        with faults.inject("sweeps.point", raises=RuntimeError) as spec:
            again = run(fig4(root))
        assert spec.fired == 0
        assert again.resumed == len(GRID)
        assert again.points == first.points

    def test_repair_truncates_partial_tail(self, tmp_path):
        root = tmp_path / "cp"
        run(fig4(root))
        clean = segment(root).read_bytes()
        with open(segment(root), "a") as fh:
            fh.write('{"broken')
        run(fig4(root))
        # The resume wrote nothing new (every key was present), so the
        # repaired segment is exactly the pre-crash bytes.
        assert segment(root).read_bytes() == clean

    def test_validate_header_mismatch(self, tmp_path):
        root = tmp_path / "cp"
        first = run(fig4(root))
        path = segment(root)
        lines = path.read_text().splitlines()
        lines[0] = json.dumps({"kind": "header", "schema": "other"})
        path.write_text("\n".join(lines) + "\n")
        # A segment with a foreign header is set aside whole; its points
        # are solved again, to the same numbers.
        again = run(fig4(root))
        assert again.resumed == 0
        assert again.points == first.points
        assert list(root.glob("*.quarantine"))

    def test_float_values_roundtrip_exactly(self, tmp_path):
        # Figure 5 with the focus class holding almost the whole cycle:
        # the other classes saturate and report infinite mean jobs.
        s = Scenario(
            name="fig5-saturated",
            system=SystemSpec(preset="fig5", args={"focus_class": 0},
                              axis=SweepAxis("fraction", (0.95, 0.99))),
            engine=EngineSpec(checkpoint=str(tmp_path / "cp")))
        first = run(s)
        assert all(math.isinf(pt.mean_jobs[1]) for pt in first.points)
        again = run(s)
        assert again.resumed == 2
        assert again.points == first.points
        assert result_bytes(again) == result_bytes(first)


class TestSweepCheckpointing:
    def test_journal_written_and_resume_skips_solves(self, tmp_path):
        first = run(fig4(tmp_path / "cp"))
        assert first.resumed == 0
        # Re-running must not re-solve anything: a fault armed at every
        # grid point would fire if any point were solved again.
        with faults.inject("sweeps.point", raises=RuntimeError) as spec:
            second = run(fig4(tmp_path / "cp"))
        assert spec.fired == 0
        assert second.resumed == len(GRID)
        assert second.points == first.points
        assert second.to_table().render() == first.to_table().render()

    def test_killed_and_resumed_matches_uninterrupted(self, tmp_path):
        """Acceptance: kill mid-sweep, resume, identical results and
        store records."""
        clean = run(fig4(tmp_path / "clean"))
        # "Kill" the sweep at the third grid point: KeyboardInterrupt
        # is not swallowed by skip_errors, like a real SIGINT.
        with faults.inject("sweeps.point", raises=KeyboardInterrupt,
                           keys=(GRID[2],)):
            with pytest.raises(KeyboardInterrupt):
                run(fig4(tmp_path / "crash"))
        resumed = run(fig4(tmp_path / "crash"))

        assert resumed.resumed == 2                   # first two survived
        assert resumed.points == clean.points
        assert result_bytes(resumed) == result_bytes(clean)
        assert store_records(tmp_path / "crash") \
            == store_records(tmp_path / "clean")

    def test_failed_points_not_persisted(self, tmp_path):
        grid = (UNSTABLE, 2.0)
        first = run(fig4(tmp_path / "cp", grid=grid))
        assert first.points[0].error.startswith("UnstableSystemError")
        kinds = [kind for kind, _, _ in store_records(tmp_path / "cp")]
        # Only the clean point is stored, and no full result.
        assert kinds == ["point"]
        # A rerun serves the clean point and solves the failed one
        # again (it fails again, reported the same way).
        with faults.inject("sweeps.point", raises=RuntimeError,
                           keys=(2.0,)) as spec:
            second = run(fig4(tmp_path / "cp", grid=grid))
        assert spec.fired == 0
        assert second.resumed == 1
        assert second.points[0].error == first.points[0].error
        assert result_bytes(second) == result_bytes(first)
        assert math.isnan(second.series(0)[0])

    def test_mismatched_journal_rejected(self, tmp_path):
        # A journal file from before checkpoints were store directories.
        path = tmp_path / "fig.jsonl"
        path.write_text('{"kind": "sweep-header", "parameter": "other"}\n')
        with pytest.raises(ValidationError, match="not a directory"):
            run(fig4(path))

    def test_empty_journal_treated_as_fresh(self, tmp_path):
        root = tmp_path / "cp"
        root.mkdir()
        res = run(fig4(root, grid=GRID[:2]))
        assert res.resumed == 0 and len(res.points) == 2

    def test_extra_journal_points_ignored(self, tmp_path):
        run(fig4(tmp_path / "cp"))
        narrowed = run(fig4(tmp_path / "cp", grid=GRID[:2]))
        assert narrowed.values() == list(GRID[:2])
        assert narrowed.resumed == 2

    def test_no_checkpoint_unchanged_behaviour(self):
        res = run(fig4(grid=GRID[:2]))
        assert res.resumed == 0 and len(res.points) == 2
