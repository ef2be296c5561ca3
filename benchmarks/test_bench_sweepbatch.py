"""Batched sweep engine acceptance bench: Figure 2 full grid race.

The gate for the batched lockstep engine
(:mod:`repro.workloads.batched`): the Figure 2 quantum sweep on the
paper-resolution (``full``) grid, solved with ``batch_points=8``, must

* beat the per-point serial path's wall clock (the in-test floor is
  deliberately looser than the committed baseline's speedup, to absorb
  single-run timing noise),
* reproduce the per-point mean-jobs and response-time series exactly
  at every grid point.

Times, speedup and parity persist to
``benchmarks/results/BENCH_sweepbatch.json``; the CI smoke-bench job
regenerates the file and ``scripts/bench_compare.py`` fails the build
when the batched path's host-calibrated wall clock regresses >20%
against the committed baseline.
"""

import dataclasses
import json
import pathlib
import time

import pytest

from repro.scenario import get_scenario
from repro.workloads.sweeps import sweep_scenario

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

BATCH = 8


def run_fig2(batch_points):
    sc = get_scenario("fig2", grid="full").with_engine(
        batch_points=batch_points)
    return sweep_scenario(sc)


@pytest.mark.benchmark(group="sweepbatch")
def test_fig2_batched_race_and_parity(benchmark, emit):
    t0 = time.perf_counter()
    serial = run_fig2(0)
    t_serial = time.perf_counter() - t0

    t0 = time.perf_counter()
    batched = benchmark.pedantic(run_fig2, args=(BATCH,),
                                 rounds=1, iterations=1)
    t_batched = time.perf_counter() - t0

    # Parity: batching is an execution strategy, not a model change.
    worst = 0.0
    for a, b in zip(serial.points, batched.points):
        assert a.value == b.value and a.error is None and b.error is None
        for x, y in zip(a.mean_jobs + a.mean_response_time,
                        b.mean_jobs + b.mean_response_time):
            worst = max(worst, abs(x - y))
    assert worst == 0.0, f"batched sweep diverged by {worst:.3e}"

    speedup = t_serial / t_batched
    payload = {
        "grid": [pt.value for pt in serial.points],
        "batch_points": BATCH,
        "seed_seconds": round(t_serial, 4),
        "pipeline_seconds": round(t_batched, 4),
        "speedup": round(speedup, 3),
        "worst_parity_diff": worst,
        "points": [dataclasses.asdict(pt) for pt in batched.points],
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_sweepbatch.json").write_text(
        json.dumps(payload, indent=2) + "\n")
    print(f"\nper-point {t_serial:.2f}s  batched x{BATCH} {t_batched:.2f}s  "
          f"speedup {speedup:.2f}x  worst diff {worst:.2e}")

    assert speedup >= 1.1, (
        f"batched sweep only {speedup:.2f}x faster than per-point "
        f"({t_batched:.2f}s vs {t_serial:.2f}s)")
