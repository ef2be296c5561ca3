"""Compare a parent's benchmark runs with a change's.

One row per (workload, metric).  Each side shows its median and
quartiles over every repeat in its files.  For a timing or memory
metric (the end-to-end metrics of ``BENCHMARK.json`` and each workload's
detail timings) the change:

``regression``
    has a median worse than the parent's by more than the metric's
    bound in ``BENCHMARK.json``;
``unresolved``
    cannot be judged: the parent's own spread (the distance between its
    quartiles, as a share of its median) exceeds the bound, and not every
    change repeat beats every parent repeat;
``win``
    beats the parent in at least nine tenths of all (change, parent)
    pairs, by a median margin larger than the parent's spread;
``same``
    otherwise.

Count metrics from traced runs (unit ``count``) must repeat exactly, and
a workload's ``fail_ratio`` (failed / attempted operations) may not rise.
The exit code is 1 when any row is a regression.
"""

from __future__ import annotations

import json
from pathlib import Path

from bench.stats import quartiles

__all__ = ["judge", "compare_docs", "main_compare"]

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"

#: Share of (change, parent) pairs a change must win to claim a gain.
WIN_SHARE = 0.9
#: Bound of the workload-only timings (``slo_search_s``, the request
#: percentiles, ...).  ``BENCHMARK.json`` can hold only metrics that
#: every workload reports, so their bound lives here.
DETAIL_BOUND = 0.10


def judge(parent: list[float], change: list[float], bound: float,
          better: str = "lower") -> dict:
    """Status of one metric on one workload (see the module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    q1p, mp, q3p = quartiles(parent)
    worse = sign * (quartiles(change)[1] - mp) / abs(mp)
    spread = (q3p - q1p) / abs(mp)
    diffs = [sign * (c - p) for c in change for p in parent]
    all_better = all(d < 0 for d in diffs)
    wins = sum(d < 0 for d in diffs) / len(diffs)
    if spread > bound and not all_better:
        status = "unresolved"
    elif worse > bound:
        status = "regression"
    elif -worse > spread and wins >= WIN_SHARE:
        status = "win"
    else:
        status = "same"
    return {"status": status, "worse": worse, "spread": spread,
            "wins": wins}


def _samples(docs: list[dict], workload: str, key: str,
             metric: str) -> list[float]:
    out: list[float] = []
    for doc in docs:
        m = doc["workloads"].get(workload, {}).get(key, {}).get(metric)
        if m is not None:
            out += m["samples"]
    return out


def _detail_names(docs: list[dict], workload: str) -> list[str]:
    return sorted({name for doc in docs
                   for name in doc["workloads"].get(workload, {})
                   .get("detail", {})})


def _counts(docs: list[dict], workload: str) -> dict[str, set]:
    seen: dict[str, set] = {}
    for doc in docs:
        layer = doc["workloads"].get(workload, {}).get("per_layer", {})
        for name, m in layer.items():
            if m["unit"] == "count":
                seen.setdefault(name, set()).add(m["value"])
    return seen


def _fail_ratio(docs: list[dict], workload: str) -> float:
    entries = [doc["workloads"][workload] for doc in docs
               if workload in doc["workloads"]]
    attempted = sum(e["attempted"] for e in entries)
    return sum(e["failed"] for e in entries) / max(1, attempted)


def compare_docs(parent: list[dict], change: list[dict],
                 bench: dict) -> list[dict]:
    """Every comparison row of ``change`` against ``parent``."""
    rows = []
    workloads = [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        if not any(workload in d["workloads"] for d in parent) or \
                not any(workload in d["workloads"] for d in change):
            continue
        specs = [("metrics", s) for s in bench["end_to_end"]] + [
            ("detail", {"name": name, "unit": "s", "better": "lower",
                        "bound": DETAIL_BOUND})
            for name in _detail_names(parent, workload)]
        for key, spec in specs:
            p = _samples(parent, workload, key, spec["name"])
            c = _samples(change, workload, key, spec["name"])
            if not p or not c:
                continue
            row = judge(p, c, spec["bound"], spec["better"])
            rows.append({"workload": workload, "metric": spec["name"],
                         "unit": spec["unit"], "bound": spec["bound"],
                         "parent": quartiles(p), "change": quartiles(c),
                         "n": (len(p), len(c)), **row})
        pc, cc = _counts(parent, workload), _counts(change, workload)
        for name in sorted(set(pc) & set(cc)):
            same = len(pc[name]) == 1 and pc[name] == cc[name]
            rows.append({"workload": workload, "metric": name,
                         "unit": "count", "parent": sorted(pc[name]),
                         "change": sorted(cc[name]),
                         "status": "same" if same else "changed"})
        fp, fc = _fail_ratio(parent, workload), _fail_ratio(change, workload)
        rows.append({"workload": workload, "metric": "fail_ratio",
                     "unit": "ratio", "parent": fp, "change": fc,
                     "status": "regression" if fc > fp else "same"})
    return rows


def _fmt_side(q) -> str:
    if isinstance(q, tuple):
        return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
    if isinstance(q, list):
        return ",".join(f"{v:g}" for v in q)
    return f"{q:.4g}"


def _load(paths: list[str]) -> list[dict]:
    return [json.loads(Path(p).read_text()) for p in paths]


def main_compare(parent_paths: list[str], change_paths: list[str]) -> int:
    bench = json.loads(BENCHMARK.read_text())
    rows = compare_docs(_load(parent_paths), _load(change_paths), bench)
    print(f"{'workload':16s} {'metric':44s} {'parent median [q1, q3]':34s} "
          f"{'change median [q1, q3]':34s} {'worse':>7s} {'spread':>7s} "
          f"{'bound':>6s}  status")
    for r in rows:
        timing = "worse" in r
        print(f"{r['workload']:16s} {r['metric']:44s} "
              f"{_fmt_side(r['parent']):34s} {_fmt_side(r['change']):34s} "
              + (f"{r['worse']:+7.1%} {r['spread']:7.1%} {r['bound']:6.0%}"
                 if timing else f"{'':7s} {'':7s} {'':6s}")
              + f"  {r['status']}")
    return 1 if any(r["status"] == "regression" for r in rows) else 0
