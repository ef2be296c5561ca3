"""Parent side of the benchmark: start children, aggregate, print, write JSON.

Load comes from one process at a time.  The harness runs each
(workload, repeat) in its own child interpreter, one after another, and
waits for it: one client in a closed loop.  The ``service`` child adds
the daemon's single worker process, so the benchmark never uses more
than two processes doing work.

Every child runs hermetically:

* ``PYTHONPATH`` is the checkout's ``src`` (nothing installed is used);
* the adaptive-backend calibration sidecar, the service store and
  ``TMPDIR`` live in a per-child directory under ``bench/out/``, removed
  when the run ends, so no decision or result leaks across runs;
* BLAS runs one thread and string hashing is fixed, for steadier timings
  and bit-stable references across hosts with different core counts.
"""

from __future__ import annotations

import compileall
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

from bench import ledger
from bench.stats import median, percentile
from bench.workloads import REFERENCE_DIR, WORKLOADS

__all__ = ["END_TO_END", "ROOT", "main_run", "main_reference",
           "end_to_end_metrics", "detail_metrics"]

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

#: End-to-end metrics every workload reports, with their units.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

#: Set-up-only children started before the repeats, so ``setup_s`` is a
#: median over at least three set-ups even when one repeat fills a run.
SETUP_ONLY = 2
#: Repeats when ``--seconds`` is not given.
DEFAULT_REPEATS = 5
#: Wall-clock limit of one child process.
CHILD_TIMEOUT = 170.0
BLAS_THREADS = "1"


def _checkout_problem(*, references: bool) -> str | None:
    """Why this checkout cannot be benchmarked, or ``None``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return f"no repro package under {SRC}"
    for name in ("figures", "percentiles") if references else ():
        if not (REFERENCE_DIR / f"{name}.json").is_file():
            return f"missing reference {REFERENCE_DIR / name}.json"
    return None


def _child_env(tmp: Path) -> dict:
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": f"{SRC}{os.pathsep}{ROOT}",
        "PYTHONHASHSEED": "0",
        "OPENBLAS_NUM_THREADS": BLAS_THREADS,
        "OMP_NUM_THREADS": BLAS_THREADS,
        "MKL_NUM_THREADS": BLAS_THREADS,
        "REPRO_GANG_CALIBRATION": str(tmp / "backend-calibration.json"),
        "XDG_CACHE_HOME": str(tmp / "cache"),
        "TMPDIR": str(tmp),
    })
    return env


def _spawn(workload: str, seed: int, mode: str, tmp_root: Path,
           ) -> tuple[dict | None, str | None]:
    """Run one child to completion; ``(result, error)``."""
    tmp = Path(tempfile.mkdtemp(prefix=f"{mode}-", dir=tmp_root))
    result_path = tmp / "result.json"
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-m", "bench", "child", "--workload", workload,
         "--seed", str(seed), "--mode", mode, "--spawned", repr(spawned),
         "--tmp", str(tmp), "--result", str(result_path)],
        cwd=ROOT, env=_child_env(tmp), stdout=2, start_new_session=True)
    error = None
    try:
        proc.wait(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        error = f"child timed out after {CHILD_TIMEOUT:.0f} s"
    finally:
        # The child leads its own process group: this also stops a
        # service worker a crashed child left behind.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
    if error is None and proc.returncode != 0:
        error = f"child exited with code {proc.returncode}"
    if error is not None or not result_path.is_file():
        return None, error or "child wrote no result"
    return json.loads(result_path.read_text()), None


def _metric(value: float, unit: str, samples: list) -> dict:
    return {"value": value, "unit": unit, "n": len(samples),
            "samples": samples}


def end_to_end_metrics(children: list[dict], repeats: list[dict]) -> dict:
    """The :data:`END_TO_END` metrics, each a median over its samples.

    ``children`` is every child of the run (each set up once) and
    ``repeats`` those that also ran a repeat.
    """
    setups = [c["setup_s"] for c in children]
    per_repeat = {
        "wall_s": [r["wall_s"] for r in repeats],
        "peak_rss_mb": [r["peak_rss_mb"] for r in repeats],
    }
    out = {"setup_s": _metric(median(setups), "s", setups)}
    for name, samples in per_repeat.items():
        out[name] = _metric(median(samples), END_TO_END[name], samples)
    return out


def detail_metrics(workload: str, repeats: list[dict]) -> dict:
    """The workload's ``detail`` metrics (seconds): each percentile over
    the operations of every repeat pooled, with per-repeat samples."""
    out = {}
    for name, (labels, pct) in WORKLOADS[workload].detail.items():
        per_repeat = [[s for label, s in r["ops"] if label in labels]
                      for r in repeats]
        pooled = [s for ops in per_repeat for s in ops]
        out[name] = {"value": percentile(pooled, pct), "unit": "s",
                     "n": len(pooled),
                     "samples": [percentile(ops, pct) for ops in per_repeat]}
    return out


def _measure(workload: str, seed: int, *, seconds: float | None,
             trace: bool, tmp_root: Path) -> dict:
    """Run one workload's children and aggregate them."""
    results: list[dict] = []
    errors: list[str] = []

    def spawn(mode: str) -> dict | None:
        res, err = _spawn(workload, seed, mode, tmp_root)
        if err is not None:
            errors.append(f"{mode}: {err}")
        else:
            results.append(res)
        return res

    untraced: list[dict] = []
    traced = None
    if trace:
        res = spawn("repeat")
        if res is not None:
            untraced.append(res)
            traced = spawn("trace")
    else:
        for _ in range(SETUP_ONLY):
            spawn("setup")
        # Without --seconds: DEFAULT_REPEATS.  With it: at least one, and
        # another while the last one's time still fits in what is left.
        spent = last = 0.0
        while not errors and (len(untraced) < DEFAULT_REPEATS
                              if seconds is None else
                              not untraced or spent + last <= seconds):
            t0 = time.monotonic()
            res = spawn("repeat")
            last = time.monotonic() - t0
            spent += last
            if res is not None:
                untraced.append(res)

    timed = untraced + ([traced] if traced is not None else [])
    failures = [f"{label}: {msg}" for r in timed for label, msg in r["failures"]]
    failed = sum(len({label for label, _ in r["failures"]}) for r in timed)
    attempted = sum(r["attempted"] for r in timed)
    entry = {
        "repeats": len(untraced),
        "attempted": attempted + len(errors),
        "failed": failed + len(errors),
        "errors": errors,
        "failures": failures[:50],
    }
    entry["correct"] = entry["failed"] == 0 and bool(untraced)
    entry["fail_ratio"] = entry["failed"] / max(1, entry["attempted"])
    if results:
        entry["versions"] = results[0]["versions"]
    if untraced and not trace:
        entry["metrics"] = end_to_end_metrics(results, untraced)
        entry["detail"] = detail_metrics(workload, untraced)
    if traced is not None:
        spans = traced["trace"]
        values = ledger.per_layer_metrics(spans, traced["wall_s"],
                                          untraced[0]["wall_s"])
        entry["per_layer"] = {name: {"value": v, "unit": ledger.PER_LAYER[name]}
                              for name, v in values.items()}
        entry["layers"] = ledger.layer_table(ledger.span_stats(spans),
                                             traced["wall_s"])
        entry["missing_targets"] = spans["missing"]
        entry["spans"] = spans
    return entry


def _commit() -> str | None:
    """The checkout's git commit, if it is a git work tree of its own."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or \
            Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _host(versions: dict | None) -> dict:
    return {"nproc": os.cpu_count(), "platform": platform.platform(),
            "machine": platform.machine(), "blas_threads": int(BLAS_THREADS),
            **(versions or {})}


def _print_workload(name: str, entry: dict) -> None:
    rows = [(metric, m) for key in ("metrics", "detail", "per_layer")
            for metric, m in entry.get(key, {}).items()]
    for metric, m in rows:
        n = f"  (n={m['n']})" if "n" in m else ""
        print(f"{name:16s} {metric:50s} {m['value']:.6g} {m['unit']}{n}")
    print(f"{name:16s} {'fail_ratio':50s} {entry['fail_ratio']:.6g} ratio"
          f"  ({entry['failed']} failed of {entry['attempted']} attempted)")
    print(f"{name:16s} {'correct':50s} {entry['correct']}")
    for line in entry["errors"] + entry["failures"][:5]:
        print(f"{name:16s} FAIL {line}", file=sys.stderr)


def _values(entry: dict, key: str) -> dict:
    return {name: {"value": m["value"], "unit": m["unit"]}
            for name, m in entry.get(key, {}).items()}


def main_run(workloads: list[str], seed: int, *, seconds: float | None,
             trace: bool, out: str | None) -> int:
    """``run`` / ``trace``: measure ``workloads``; print and write JSON.

    The last line of standard output is one JSON object with the keys
    ``correct``, ``attempted``, ``failed`` and ``metrics`` (for a single
    workload, metric name -> value and unit; otherwise keyed by
    workload first).
    """
    problem = _checkout_problem(references=True)
    if problem is not None:
        print(f"bench: {problem}", file=sys.stderr)
        return 2
    # Turn SIGTERM into SystemExit so the running child's process group
    # is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    compileall.compile_dir(str(SRC / "repro"), quiet=1)
    OUT.mkdir(parents=True, exist_ok=True)
    tmp_root = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    doc = {"schema": 1, "command": "trace" if trace else "run",
           "seed": seed, "seconds": seconds,
           "started": datetime.now(timezone.utc).isoformat(),
           "commit": _commit(), "workloads": {}}
    try:
        for name in workloads:
            entry = _measure(name, seed, seconds=seconds, trace=trace,
                             tmp_root=tmp_root)
            doc["workloads"][name] = entry
            _print_workload(name, entry)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    first = next(iter(doc["workloads"].values()))
    doc["host"] = _host(first.get("versions"))
    key = "per_layer" if trace else "metrics"
    entries = doc["workloads"]
    path = Path(out) if out else OUT / (
        f"{doc['command']}-{'-'.join(workloads)}-seed{seed}.json")
    path.write_text(json.dumps(doc, indent=1))
    summary = {
        "correct": all(e["correct"] for e in entries.values()),
        "attempted": sum(e["attempted"] for e in entries.values()),
        "failed": sum(e["failed"] for e in entries.values()),
        "metrics": (_values(first, key) if len(entries) == 1 else
                    {n: _values(e, key) for n, e in entries.items()}),
    }
    print(f"wrote {path}", file=sys.stderr)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main_reference() -> int:
    """Recompute ``bench/reference`` from one repeat of each checked workload."""
    problem = _checkout_problem(references=False)
    if problem is not None:
        print(f"bench: {problem}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    tmp_root = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    try:
        for name in ("figures", "percentiles"):
            res, err = _spawn(name, 0, "reference", tmp_root)
            if err is not None:
                print(f"bench: {name}: {err}", file=sys.stderr)
                return 1
            path = REFERENCE_DIR / f"{name}.json"
            path.write_text(json.dumps(res["reference"], indent=1,
                                       sort_keys=True) + "\n")
            print(f"wrote {path}")
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    return 0

