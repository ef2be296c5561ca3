"""Staged-pipeline acceptance bench: warm starts, parallel checkpointed sweep.

The gate for the staged solver pipeline: a Figure-2-style quantum sweep
(the ``fig23`` system) run through :func:`repro.scenario.run` with the
pipeline defaults (warm-started R solves) on 4 supervised worker
processes, persisting to a checkpoint store directory, must

* run at least 2x faster than the seed serial path (pipeline features
  disabled, solved in-process),
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

from repro.scenario import (
    Scenario,
    SweepAxis,
    SystemSpec,
    canonical_bytes,
    run,
    run_result_to_dict,
)
from repro.service.store import ResultStore
from tests.legacy_route import legacy_route
from tests.store_records import store_records

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

GRID = (0.25, 0.5, 1.0, 2.0, 3.0, 4.5)
WORKERS = 4
SCENARIO = Scenario(
    name="fig23-pipeline",
    system=SystemSpec(preset="fig23", args={"arrival_rate": 0.4},
                      axis=SweepAxis("quantum_mean", GRID)))


def run_seed():
    """The pre-pipeline solve path: cold R solves, reference stages."""
    with legacy_route():
        return run(SCENARIO)


def run_pipeline(checkpoint):
    return run(SCENARIO.with_engine(workers=WORKERS,
                                    checkpoint=str(checkpoint)))


def _canonical_bytes(result) -> bytes:
    return canonical_bytes(run_result_to_dict(result))


@pytest.mark.benchmark(group="pipeline")
def test_pipeline_sweep_speedup_and_parity(benchmark, emit, tmp_path):
    t0 = time.perf_counter()
    seed = run_seed()
    t_seed = time.perf_counter() - t0

    t0 = time.perf_counter()
    fast = benchmark.pedantic(run_pipeline, args=(tmp_path / "cp",),
                              rounds=1, iterations=1)
    t_fast = time.perf_counter() - t0
    assert fast.resumed == 0

    # Parity: the pipeline is an optimization, not a model change.
    worst = 0.0
    for a, b in zip(seed.points, fast.points):
        assert a.value == b.value and a.error is None and b.error is None
        for x, y in zip(a.mean_jobs, b.mean_jobs):
            worst = max(worst, abs(x - y))
    assert worst <= 1e-8, f"mean_jobs diverged by {worst:.3e}"

    speedup = t_seed / t_fast
    payload = {
        "grid": list(GRID),
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


def test_pipeline_kill_and_resume_byte_identical(tmp_path, monkeypatch):
    reference = run_pipeline(tmp_path / "reference")
    # Interrupt the parent once two points are durable, as a SIGINT
    # landing mid-sweep would.
    real_put = ResultStore.put_point

    def interrupted(self, key, value):
        if len(self) >= 2:
            raise KeyboardInterrupt
        return real_put(self, key, value)

    with monkeypatch.context() as mp:
        mp.setattr(ResultStore, "put_point", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_pipeline(tmp_path / "crash")
    resumed = run_pipeline(tmp_path / "crash")
    assert resumed.resumed > 0, "the kill left nothing stored"
    assert _canonical_bytes(resumed) == _canonical_bytes(reference)
    assert store_records(tmp_path / "crash") \
        == store_records(tmp_path / "reference")
