"""Read a result-store directory back as plain records (test helper)."""

from __future__ import annotations

import json
from pathlib import Path


def store_records(root) -> list[tuple[str, str, str]]:
    """Sorted ``(kind, key, value JSON)`` of every record under ``root``.

    Two stores hold the same results exactly when these lists are
    equal, whatever order their records were appended in.
    """
    records = []
    for segment in sorted(Path(root).glob("seg-*.jsonl")):
        for line in segment.read_text().splitlines():
            rec = json.loads(line)
            if rec["kind"] != "header":
                records.append((rec["kind"], rec["key"],
                                json.dumps(rec["value"], sort_keys=True)))
    return sorted(records)
