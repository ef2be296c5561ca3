"""The service's persistent result store: append-only JSONL segments.

A :class:`ResultStore` maps content hashes
(:func:`~repro.scenario.hashing.scenario_key` /
:func:`~repro.scenario.hashing.point_key`) to stored result payloads.
It backs both the daemon (``serve --store DIR``) and checkpointed CLI
sweeps (``--checkpoint DIR``), so the two share results.  Every record
is written, flushed, and ``fsync``-ed before ``put`` returns, so the
only corruption an append-only writer can produce is a torn final line.

Layout: the store directory holds numbered segments
(``seg-00000001.jsonl`` ...), each opening with a header record and
rotating at ``segment_max_bytes``.  The in-memory index is rebuilt by
replaying every segment on open, so the store has no separate index
file to corrupt.

Corruption is never fatal:

* a torn tail on the *last* segment (the crash case) is truncated in
  place and counted (``service.store.repairs``);
* undecodable lines anywhere else — bit rot, partial writes surfacing
  mid-file — are quarantined: the segment is rewritten without them via
  write-tmp/fsync/rename, the originals preserved in a
  ``*.quarantine`` sidecar (``service.store.quarantined``);
* a segment whose header is missing or wrong is set aside whole, as
  ``*.quarantine``.

Writes are idempotent by key: re-putting an existing key is a no-op, so
replaying a workload against a warm store does not grow it.

One process at a time: an open store holds a lock on ``LOCK`` in its
directory, and a second process opening it gets a ``ValidationError``.
"""

from __future__ import annotations

import json
import os
import pathlib

try:
    import fcntl
except ImportError:                     # Windows: no POSIX record locks
    fcntl = None

from repro.errors import ValidationError
from repro.obs import log as obs_log
from repro.obs import metrics
from repro.obs.trace import span

__all__ = ["STORE_SCHEMA", "STORE_VERSION", "ResultStore"]

STORE_SCHEMA = "repro-result-store"
STORE_VERSION = 1

_KINDS = ("result", "point")


def _header_line() -> str:
    return json.dumps({"kind": "header", "schema": STORE_SCHEMA,
                       "version": STORE_VERSION}) + "\n"


class ResultStore:
    """Crash-safe key -> payload store over append-only JSONL segments."""

    def __init__(self, root: str | os.PathLike, *,
                 segment_max_bytes: int = 4 << 20):
        self.root = pathlib.Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError):
            raise ValidationError(
                f"result store {str(self.root)!r} is not a directory; "
                "result stores are directories of JSONL segments") from None
        if segment_max_bytes <= 0:
            raise ValidationError(
                f"segment_max_bytes must be > 0, got {segment_max_bytes}")
        self.segment_max_bytes = segment_max_bytes
        self._index: dict[tuple[str, str], dict] = {}
        self.repaired_tails = 0
        self.quarantined_lines = 0
        self.quarantined_segments = 0
        self.compactions = 0
        self._fh = None
        self._lock_fh = None
        with span("service.store.open", root=str(self.root)):
            self._lock()
            self._replay()
            self._open_active()

    def _lock(self) -> None:
        """Hold ``LOCK`` in the store directory until :meth:`close`.

        Opening a store heals its segments in place, so a second
        process opening a store in use (a CLI ``--checkpoint`` run
        pointed at a live daemon's ``--store``) could rewrite a segment
        the first is appending to.  It is rejected instead.  The lock is
        a POSIX record lock: it dies with its process, and forked pool
        workers do not inherit it.
        """
        if fcntl is None:
            return
        fh = open(self.root / "LOCK", "a")
        try:
            fcntl.lockf(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            fh.close()
            raise ValidationError(
                f"result store {str(self.root)!r} is in use by another "
                "process (a running daemon or sweep)") from None
        self._lock_fh = fh

    # -- open-time replay --------------------------------------------------

    def _segments(self) -> list[pathlib.Path]:
        return sorted(self.root.glob("seg-*.jsonl"))

    def _replay(self) -> None:
        segments = self._segments()
        for i, path in enumerate(segments):
            self._load_segment(path, is_last=(i == len(segments) - 1))

    def _load_segment(self, path: pathlib.Path, *, is_last: bool) -> None:
        raw = path.read_bytes()
        if not raw:
            return          # crash between create and header write
        lines: list[tuple[int, bytes]] = []        # (byte offset, line)
        offset = 0
        for line in raw.split(b"\n"):
            if line:
                lines.append((offset, line))
            offset += len(line) + 1
        torn_tail = bool(raw) and not raw.endswith(b"\n")
        records: list[dict] = []
        bad: list[int] = []                        # indices into ``lines``
        for i, (_, line) in enumerate(lines):
            if i == len(lines) - 1 and torn_tail:
                bad.append(i)
                continue
            try:
                rec = json.loads(line.decode("utf-8"))
                if not isinstance(rec, dict) or "kind" not in rec:
                    raise ValueError("not a record object")
            except (ValueError, UnicodeDecodeError):
                bad.append(i)
                rec = None
            records.append(rec)                    # None for bad lines
        if not self._header_ok(records[0] if records else None):
            self._quarantine_segment(path)
            return
        if bad:
            self._heal(path, lines, records, bad, is_last=is_last)
        for rec in records:
            if rec is None or rec.get("kind") == "header":
                continue
            self._apply(rec)

    @staticmethod
    def _header_ok(rec: dict | None) -> bool:
        return (rec is not None and rec.get("kind") == "header"
                and rec.get("schema") == STORE_SCHEMA
                and int(rec.get("version", 0)) <= STORE_VERSION)

    def _apply(self, rec: dict) -> None:
        kind = rec.get("kind")
        if kind in _KINDS and isinstance(rec.get("key"), str):
            self._index[(kind, rec["key"])] = rec.get("value")
        # Unknown kinds are tolerated (forward compatibility).

    def _heal(self, path: pathlib.Path, lines, records, bad: list[int],
              *, is_last: bool) -> None:
        """Drop undecodable lines: truncate a torn tail, else rewrite."""
        suffix_start = len(lines) - len(bad)
        if is_last and bad == list(range(suffix_start, len(lines))):
            # Pure trailing damage on the active segment: the crash
            # case.  Truncate to the last good byte, in place.
            good_end = lines[bad[0]][0]
            with open(path, "r+b") as fh:
                fh.truncate(good_end)
                fh.flush()
                os.fsync(fh.fileno())
            self.repaired_tails += 1
            metrics.inc("service.store.repairs")
            obs_log.warn("store.tail_repair", segment=str(path),
                         dropped_lines=len(bad))
            return
        # Mid-segment damage: rewrite the good lines atomically and
        # keep the damaged original for forensics.
        quarantine = path.with_suffix(".jsonl.quarantine")
        quarantine.write_bytes(path.read_bytes())
        tmp = path.with_suffix(".jsonl.tmp")
        with open(tmp, "wb") as fh:
            for i, (_, line) in enumerate(lines):
                if i not in bad:
                    fh.write(line + b"\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        self.quarantined_lines += len(bad)
        metrics.inc("service.store.quarantined", len(bad))
        obs_log.warn("store.quarantine", segment=str(path),
                     quarantined_lines=len(bad))

    def _quarantine_segment(self, path: pathlib.Path) -> None:
        path.rename(path.with_suffix(".jsonl.quarantine"))
        self.quarantined_segments += 1
        metrics.inc("service.store.quarantined_segments")
        obs_log.error("store.quarantine_segment", segment=str(path))

    # -- appending ---------------------------------------------------------

    def _open_active(self) -> None:
        segments = self._segments()
        if segments and segments[-1].stat().st_size < self.segment_max_bytes:
            self._active = segments[-1]
        else:
            seq = len(segments) + 1
            while True:                            # skip quarantined names
                candidate = self.root / f"seg-{seq:08d}.jsonl"
                if not candidate.exists():
                    break
                seq += 1
            self._active = candidate
        self._fh = open(self._active, "a", encoding="utf-8")
        if self._fh.tell() == 0:
            self._fh.write(_header_line())
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def _rotate_if_full(self) -> None:
        if self._fh.tell() >= self.segment_max_bytes:
            self._fh.close()
            self._fh = None
            self._open_active()

    def _put(self, kind: str, key: str, value: dict) -> bool:
        if self._fh is None:
            raise ValidationError("result store is closed")
        if (kind, key) in self._index:
            return False                           # idempotent
        self._rotate_if_full()
        line = json.dumps({"kind": kind, "key": key, "value": value},
                          separators=(",", ":"))
        self._fh.write(line + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._index[(kind, key)] = value
        metrics.inc("service.store.writes", kind=kind)
        return True

    # -- public API --------------------------------------------------------

    def put_result(self, key: str, value: dict) -> bool:
        """Store a full run result; returns False if already present."""
        return self._put("result", key, value)

    def put_point(self, key: str, value: dict) -> bool:
        """Store one grid point's shard result."""
        return self._put("point", key, value)

    def get_result(self, key: str) -> dict | None:
        return self._index.get(("result", key))

    def get_point(self, key: str) -> dict | None:
        return self._index.get(("point", key))

    def compact(self) -> dict:
        """Rewrite the live records into one fresh segment.

        An append-only store never reclaims anything: healed rewrites
        leave ``*.quarantine`` sidecars behind and a long-lived daemon
        accumulates segments whose records have long been superseded in
        the index.  Compaction writes the current index — exactly the
        live records, one line per key — into a fresh first segment,
        then drops every other segment and every quarantine sidecar.

        Crash-safe by ordering: the compacted segment is fully written
        and fsync-ed to a temporary file, atomically renamed over
        ``seg-00000001.jsonl``, and only then are the remaining old
        segments unlinked.  A crash at any point leaves segments whose
        replay yields a superset of the live records, never a loss.
        Returns a summary dict (segment/byte counts and sidecars
        dropped); rotation restarts from the single compacted segment.
        """
        if self._fh is None:
            raise ValidationError("result store is closed")
        with span("service.store.compact", root=str(self.root)):
            self._fh.close()
            self._fh = None
            old_segments = self._segments()
            old_bytes = sum(p.stat().st_size for p in old_segments)
            tmp = self.root / "compact.jsonl.tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(_header_line())
                for (kind, key), value in self._index.items():
                    fh.write(json.dumps(
                        {"kind": kind, "key": key, "value": value},
                        separators=(",", ":")) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            target = self.root / "seg-00000001.jsonl"
            os.replace(tmp, target)
            for path in old_segments:
                if path != target:
                    path.unlink(missing_ok=True)
            sidecars = 0
            for path in self.root.glob("*.quarantine"):
                path.unlink()
                sidecars += 1
            self._open_active()
            self.compactions += 1
            metrics.inc("service.store.compactions")
            new_bytes = target.stat().st_size
            return {
                "segments_before": len(old_segments),
                "records": len(self._index),
                "reclaimed_bytes": max(0, old_bytes - new_bytes),
                "quarantine_files_dropped": sidecars,
            }

    def __len__(self) -> int:
        return len(self._index)

    def stats(self) -> dict:
        return {
            "segments": len(self._segments()),
            "results": sum(1 for k, _ in self._index if k == "result"),
            "points": sum(1 for k, _ in self._index if k == "point"),
            "repaired_tails": self.repaired_tails,
            "quarantined_lines": self.quarantined_lines,
            "quarantined_segments": self.quarantined_segments,
            "compactions": self.compactions,
        }

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        if self._lock_fh is not None:
            self._lock_fh.close()       # releases the lock
            self._lock_fh = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
