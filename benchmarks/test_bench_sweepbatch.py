"""Lockstep sweep acceptance bench: Figure 2 full grid race.

The gate for lockstep sweep chunks (:mod:`repro.workloads.batched`):
the Figure 2 quantum sweep on the paper-resolution (``full``) grid,
solved at the default chunk width (``batch_points=0``, 8 points), must

* beat the same sweep one point at a time (``batch_points=1``) on the
  wall clock (the in-test floor is deliberately looser than the
  committed baseline's speedup, to absorb single-run timing noise),
* reproduce its mean-jobs and response-time series exactly at every
  grid point.

Times, speedup and parity persist to
``benchmarks/results/BENCH_sweepbatch.json``; the CI smoke-bench job
regenerates the file and ``scripts/bench_compare.py`` fails the build
when the default width's host-calibrated wall clock regresses >20%
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

#: The one-point-at-a-time width the default races against.
ONE_AT_A_TIME = 1


def run_fig2(batch_points):
    sc = get_scenario("fig2", grid="full").with_engine(
        batch_points=batch_points)
    return sweep_scenario(sc)


@pytest.mark.benchmark(group="sweepbatch")
def test_fig2_batched_race_and_parity(benchmark, emit):
    t0 = time.perf_counter()
    serial = run_fig2(ONE_AT_A_TIME)
    t_serial = time.perf_counter() - t0

    t0 = time.perf_counter()
    batched = benchmark.pedantic(run_fig2, args=(0,),
                                 rounds=1, iterations=1)
    t_batched = time.perf_counter() - t0

    # Parity: the chunk width is an execution strategy, not a model
    # change.
    worst = 0.0
    for a, b in zip(serial.points, batched.points):
        assert a.value == b.value and a.error is None and b.error is None
        for x, y in zip(a.mean_jobs + a.mean_response_time,
                        b.mean_jobs + b.mean_response_time):
            worst = max(worst, abs(x - y))
    assert worst == 0.0, f"chunked sweep diverged by {worst:.3e}"

    speedup = t_serial / t_batched
    payload = {
        "grid": [pt.value for pt in serial.points],
        "batch_points": 0,
        "seed_seconds": round(t_serial, 4),
        "pipeline_seconds": round(t_batched, 4),
        "speedup": round(speedup, 3),
        "worst_parity_diff": worst,
        "points": [dataclasses.asdict(pt) for pt in batched.points],
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_sweepbatch.json").write_text(
        json.dumps(payload, indent=2) + "\n")
    print(f"\none at a time {t_serial:.2f}s  default width "
          f"{t_batched:.2f}s  speedup {speedup:.2f}x  worst diff {worst:.2e}")

    assert speedup >= 1.1, (
        f"default-width sweep only {speedup:.2f}x faster than one point "
        f"at a time ({t_batched:.2f}s vs {t_serial:.2f}s)")
