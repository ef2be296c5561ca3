"""Staged-pipeline acceptance bench: warm starts, reuse, parallel sweep.

The gate for the staged solver pipeline: a Figure-2-style quantum sweep
solved with the pipeline defaults (warm-started R solves + artifact
reuse) across 4 worker processes must

* run at least 2x faster than the seed serial path (pipeline features
  disabled),
* reproduce the seed's mean-jobs series to 1e-8 at every grid point,
* survive a mid-sweep kill and resume to a byte-identical result.

The measured times and speedup are persisted to
``benchmarks/results/BENCH_pipeline.json`` for the CI smoke-bench
artifact.
"""

import dataclasses
import json
import pathlib
import time

import pytest

from repro.resilience import faults
from repro.workloads import fig23_config, sweep
from tests.legacy_route import legacy_route

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

GRID = [0.25, 0.5, 1.0, 2.0, 3.0, 4.5]
WORKERS = 4


def factory(q):
    return fig23_config(0.4, q)


def run_seed(grid):
    """The pre-pipeline solve path: cold R solves, no artifact reuse."""
    with legacy_route():
        return sweep("quantum_mean", grid, factory)


def run_pipeline(grid, **kwargs):
    return sweep("quantum_mean", grid, factory, workers=WORKERS, **kwargs)


def _canonical_bytes(result) -> bytes:
    return json.dumps([dataclasses.asdict(pt) for pt in result.points],
                      sort_keys=True).encode()


@pytest.mark.benchmark(group="pipeline")
def test_pipeline_sweep_speedup_and_parity(benchmark, emit):
    t0 = time.perf_counter()
    seed = run_seed(GRID)
    t_seed = time.perf_counter() - t0

    t0 = time.perf_counter()
    fast = benchmark.pedantic(run_pipeline, args=(GRID,),
                              rounds=1, iterations=1)
    t_fast = time.perf_counter() - t0

    # Parity: the pipeline is an optimization, not a model change.
    worst = 0.0
    for a, b in zip(seed.points, fast.points):
        assert a.value == b.value and a.error is None and b.error is None
        for x, y in zip(a.mean_jobs, b.mean_jobs):
            worst = max(worst, abs(x - y))
    assert worst <= 1e-8, f"mean_jobs diverged by {worst:.3e}"

    speedup = t_seed / t_fast
    payload = {
        "grid": GRID,
        "workers": WORKERS,
        "seed_seconds": round(t_seed, 4),
        "pipeline_seconds": round(t_fast, 4),
        "speedup": round(speedup, 3),
        "worst_mean_jobs_diff": worst,
        "points": [dataclasses.asdict(pt) for pt in fast.points],
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_pipeline.json").write_text(
        json.dumps(payload, indent=2) + "\n")
    print(f"\nseed serial {t_seed:.2f}s  pipeline x{WORKERS} {t_fast:.2f}s  "
          f"speedup {speedup:.2f}x  worst diff {worst:.2e}")

    assert speedup >= 2.0, (
        f"pipeline sweep only {speedup:.2f}x faster than the seed path "
        f"({t_fast:.2f}s vs {t_seed:.2f}s)")


def test_pipeline_kill_and_resume_byte_identical(tmp_path):
    reference = run_pipeline(GRID)
    path = tmp_path / "pipeline.jsonl"
    with faults.inject("sweeps.point", raises=KeyboardInterrupt,
                       keys=(GRID[4],)):
        with pytest.raises(KeyboardInterrupt):
            run_pipeline(GRID, checkpoint=path)
    resumed = run_pipeline(GRID, checkpoint=path)
    assert resumed.resumed > 0, "the kill left nothing journaled"
    assert _canonical_bytes(resumed) == _canonical_bytes(reference)
