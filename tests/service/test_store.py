"""Tests for the crash-safe result store: durability, repair, quarantine."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ValidationError
from repro.service.store import STORE_SCHEMA, ResultStore

SRC = str(Path(__file__).resolve().parents[2] / "src")


def record_lines(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestBasics:
    def test_put_get_round_trip(self, tmp_path):
        with ResultStore(tmp_path) as store:
            assert store.get_result("k") is None
            assert store.put_result("k", {"points": [1, 2]})
            assert store.get_result("k") == {"points": [1, 2]}
            assert store.put_point("p", {"value": 0.5})
            assert store.get_point("p") == {"value": 0.5}
            # Namespaces are separate.
            assert store.get_point("k") is None

    def test_put_is_idempotent(self, tmp_path):
        with ResultStore(tmp_path) as store:
            assert store.put_result("k", {"v": 1})
            assert not store.put_result("k", {"v": 1})
        segment = sorted(tmp_path.glob("seg-*.jsonl"))[0]
        keys = [r["key"] for r in record_lines(segment)
                if r["kind"] == "result"]
        assert keys == ["k"]            # one record, not two

    def test_index_rebuilt_on_reopen(self, tmp_path):
        with ResultStore(tmp_path) as store:
            store.put_result("k", {"v": 1})
            store.put_point("p", {"v": 2})
        with ResultStore(tmp_path) as store:
            assert store.get_result("k") == {"v": 1}
            assert store.get_point("p") == {"v": 2}
            assert store.stats()["results"] == 1

    def test_segment_header_written(self, tmp_path):
        with ResultStore(tmp_path):
            pass
        segment = sorted(tmp_path.glob("seg-*.jsonl"))[0]
        header = record_lines(segment)[0]
        assert header["kind"] == "header"
        assert header["schema"] == STORE_SCHEMA

    def test_closed_store_rejects_puts(self, tmp_path):
        store = ResultStore(tmp_path)
        store.close()
        with pytest.raises(ValidationError, match="closed"):
            store.put_result("k", {})

    def test_file_path_rejected(self, tmp_path):
        path = tmp_path / "old.jsonl"
        path.write_text('{"kind": "sweep-header"}\n')
        with pytest.raises(ValidationError, match="not a directory") as exc:
            ResultStore(path)
        assert str(path) in str(exc.value)
        with pytest.raises(ValidationError, match="not a directory"):
            ResultStore(path / "below")
        assert path.read_text() == '{"kind": "sweep-header"}\n'

    @pytest.mark.skipif(sys.platform == "win32", reason="POSIX locks")
    def test_store_in_use_by_another_process_rejected(self, tmp_path):
        def open_elsewhere():
            code = ("import sys\n"
                    "from repro.errors import ValidationError\n"
                    "from repro.service.store import ResultStore\n"
                    "try:\n"
                    "    ResultStore(sys.argv[1]).close()\n"
                    "except ValidationError as exc:\n"
                    "    sys.exit(str(exc))\n")
            return subprocess.run(
                [sys.executable, "-c", code, str(tmp_path)],
                env={**os.environ, "PYTHONPATH": SRC},
                capture_output=True, text=True, timeout=120)

        with ResultStore(tmp_path) as store:
            store.put_point("p", {"v": 1})
            other = open_elsewhere()
            assert other.returncode == 1
            assert "in use by another process" in other.stderr
            assert str(tmp_path) in other.stderr
            assert store.put_point("q", {"v": 2})   # the holder is unharmed
        assert open_elsewhere().returncode == 0     # close released it
        with ResultStore(tmp_path) as store:
            assert store.stats()["points"] == 2


class TestRotation:
    def test_rotates_at_segment_size(self, tmp_path):
        with ResultStore(tmp_path, segment_max_bytes=400) as store:
            for i in range(10):
                store.put_point(f"k{i}", {"filler": "x" * 40})
        segments = sorted(tmp_path.glob("seg-*.jsonl"))
        assert len(segments) > 1
        for segment in segments:
            assert record_lines(segment)[0]["kind"] == "header"
        with ResultStore(tmp_path, segment_max_bytes=400) as store:
            assert all(store.get_point(f"k{i}") for i in range(10))


class TestCorruption:
    def fill(self, tmp_path, n=4):
        with ResultStore(tmp_path) as store:
            for i in range(n):
                store.put_point(f"k{i}", {"i": i})
        return sorted(tmp_path.glob("seg-*.jsonl"))[-1]

    def test_torn_tail_truncated_in_place(self, tmp_path):
        segment = self.fill(tmp_path)
        clean = segment.read_bytes()
        segment.write_bytes(clean + b'{"kind": "point", "key": "half')
        with ResultStore(tmp_path) as store:
            assert store.repaired_tails == 1
            assert all(store.get_point(f"k{i}") for i in range(4))
            assert store.get_point("half") is None
        assert segment.read_bytes() == clean

    def test_torn_tail_repair_then_append_round_trips(self, tmp_path):
        segment = self.fill(tmp_path)
        segment.write_bytes(segment.read_bytes() + b"garbage")
        with ResultStore(tmp_path) as store:
            store.put_point("after", {"ok": True})
        with ResultStore(tmp_path) as store:
            assert store.repaired_tails == 0    # healed for good
            assert store.get_point("after") == {"ok": True}

    def test_mid_segment_corruption_quarantined(self, tmp_path):
        segment = self.fill(tmp_path)
        lines = segment.read_text().splitlines()
        lines[2] = '{"kind": "point", "key": "k1", bitrot'
        segment.write_text("\n".join(lines) + "\n")
        with ResultStore(tmp_path) as store:
            assert store.quarantined_lines == 1
            # k1's record was the damaged one; the rest survived.
            assert store.get_point("k1") is None
            assert store.get_point("k0") and store.get_point("k3")
        sidecar = segment.with_suffix(".jsonl.quarantine")
        assert sidecar.exists() and "bitrot" in sidecar.read_text()
        # The healed segment is clean: a reopen finds nothing to do.
        with ResultStore(tmp_path) as store:
            assert store.quarantined_lines == 0

    def test_headerless_segment_set_aside_whole(self, tmp_path):
        self.fill(tmp_path)
        rogue = tmp_path / "seg-00000000.jsonl"
        rogue.write_text('{"kind": "point", "key": "x", "value": {}}\n')
        with ResultStore(tmp_path) as store:
            assert store.quarantined_segments == 1
            assert store.get_point("x") is None     # untrusted
            assert store.get_point("k0") is not None
        assert not rogue.exists()
        assert rogue.with_suffix(".jsonl.quarantine").exists()

    def test_newer_store_version_set_aside(self, tmp_path):
        rogue = tmp_path / "seg-00000001.jsonl"
        rogue.write_text(json.dumps(
            {"kind": "header", "schema": STORE_SCHEMA, "version": 99})
            + "\n")
        with ResultStore(tmp_path) as store:
            assert store.quarantined_segments == 1
            store.put_point("new", {})              # still writable

    def test_empty_segment_file_tolerated(self, tmp_path):
        (tmp_path / "seg-00000001.jsonl").touch()
        with ResultStore(tmp_path) as store:
            store.put_point("k", {"v": 1})
        with ResultStore(tmp_path) as store:
            assert store.get_point("k") == {"v": 1}

    def test_unknown_record_kinds_tolerated(self, tmp_path):
        segment = self.fill(tmp_path)
        with open(segment, "a") as fh:
            fh.write('{"kind": "hologram", "key": "z"}\n')
        with ResultStore(tmp_path) as store:
            assert store.quarantined_lines == 0
            assert store.get_point("k0") is not None


class TestCompaction:
    def test_compact_collapses_segments_and_keeps_records(self, tmp_path):
        with ResultStore(tmp_path, segment_max_bytes=64) as store:
            for i in range(6):
                store.put_result(f"k{i}", {"v": i})
            assert len(sorted(tmp_path.glob("seg-*.jsonl"))) > 1
            summary = store.compact()
            assert summary["records"] == 6
            assert summary["segments_before"] > 1
            # Everything is still served after compaction...
            for i in range(6):
                assert store.get_result(f"k{i}") == {"v": i}
            # ...and new appends keep working.
            assert store.put_result("after", {"v": "post-compact"})
        # The compacted layout replays from disk like any other store.
        with ResultStore(tmp_path) as store:
            assert store.get_result("k3") == {"v": 3}
            assert store.get_result("after") == {"v": "post-compact"}
            assert store.stats()["results"] == 7

    def test_compact_drops_quarantine_sidecars(self, tmp_path):
        with ResultStore(tmp_path) as store:
            store.put_result("a", {"v": 1})
            store.put_result("b", {"v": 2})
        segment = sorted(tmp_path.glob("seg-*.jsonl"))[0]
        lines = segment.read_text().splitlines()
        lines.insert(1, "%% rot %%")       # mid-segment damage
        segment.write_text("\n".join(lines) + "\n")
        with ResultStore(tmp_path) as store:
            assert store.quarantined_lines == 1
            assert list(tmp_path.glob("*.quarantine"))
            summary = store.compact()
            assert summary["quarantine_files_dropped"] == 1
            assert not list(tmp_path.glob("*.quarantine"))
            assert store.get_result("a") == {"v": 1}
            assert store.stats()["compactions"] == 1

    def test_compact_writes_one_record_per_live_key(self, tmp_path):
        with ResultStore(tmp_path, segment_max_bytes=64) as store:
            store.put_result("k", {"v": 1})
            store.put_point("p", {"v": 2})
            store.compact()
        segments = sorted(tmp_path.glob("seg-*.jsonl"))
        records = [r for s in segments for r in record_lines(s)
                   if r["kind"] != "header"]
        assert sorted((r["kind"], r["key"]) for r in records) \
            == [("point", "p"), ("result", "k")]

    def test_closed_store_rejects_compact(self, tmp_path):
        store = ResultStore(tmp_path)
        store.close()
        with pytest.raises(ValidationError, match="closed"):
            store.compact()
