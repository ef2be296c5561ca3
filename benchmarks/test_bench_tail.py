"""Distribution-metrics bench: the cost of asking for percentiles.

The gate for the distribution-first metrics layer: a Figure-2-style
quantum sweep that also reports ``p99`` and ``tail@5`` per class
(response-time laws extracted from every solved QBD) is timed against
the identical means-only sweep in the same process.  The measured
walls land in ``benchmarks/results/BENCH_tail.json`` —
``pipeline_seconds`` (with distributions) vs ``seed_seconds``
(means only) — which ``scripts/bench_compare.py`` gates against the
committed baseline (CI runs it with ``--threshold 0.10``).

The bench also bounds the ratio itself: asking for the two
distribution selectors may cost at most 2.5x the means-only sweep.
Each law evaluates its CDF from one cached uniformization sequence,
so the 37 or so CDF probes of a ``p99`` bisection cost about one
sequence build; what remains is building the laws and the sequences.

The grid stays at moderate quanta: tagged-job constructions at
overhead-dominated quanta (< 0.1) blow the state space up and would
turn a smoke bench into a minutes-long soak.

Besides the wall clock, the bench asserts the numbers themselves:
means must be untouched by the extra extraction, every per-class
``p99`` must dominate its mean, and every law must come back
``"exact"`` on this all-exponential workload.
"""

from __future__ import annotations

import json
import pathlib
import time

import pytest

from repro.workloads import fig23_config, sweep

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

GRID = [0.5, 1.0, 2.0, 3.0, 4.5]
SELECTORS = ("mean", "p99", "tail@5")


def factory(q):
    return fig23_config(0.4, q)


@pytest.mark.benchmark(group="tail")
def test_tail_metrics_overhead_and_parity(benchmark):
    t0 = time.perf_counter()
    seed = sweep("quantum_mean", GRID, factory)
    seed_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    tail = benchmark.pedantic(
        sweep, args=("quantum_mean", GRID, factory),
        kwargs={"metrics": SELECTORS}, rounds=1, iterations=1)
    pipeline_seconds = time.perf_counter() - t0

    # -- parity: the distribution pass changes nothing it reports on --
    worst_mean_diff = 0.0
    for base_pt, tail_pt in zip(seed.points, tail.points):
        assert tail_pt.metrics is not None
        assert tail_pt.dist_kinds is not None
        assert all(k == "exact" for k in tail_pt.dist_kinds)
        for p, row in enumerate(tail_pt.metrics):
            mean, p99, tail_at_5 = row
            worst_mean_diff = max(
                worst_mean_diff,
                abs(mean - base_pt.mean_response_time[p]))
            assert p99 > mean
            assert 0.0 <= tail_at_5 <= 1.0
    assert worst_mean_diff < 1e-12

    overhead_ratio = pipeline_seconds / seed_seconds
    payload = {
        "grid": GRID,
        "selectors": list(SELECTORS),
        "seed_seconds": round(seed_seconds, 4),
        "pipeline_seconds": round(pipeline_seconds, 4),
        "overhead_ratio": round(overhead_ratio, 3),
        "worst_mean_diff": worst_mean_diff,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_tail.json").write_text(
        json.dumps(payload, indent=2) + "\n")
    print(f"\nmeans-only {seed_seconds:.3f}s, with distributions "
          f"{pipeline_seconds:.3f}s (x{payload['overhead_ratio']})")
    assert overhead_ratio <= 2.5
