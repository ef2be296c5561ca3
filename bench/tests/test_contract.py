"""``BENCHMARK.json`` agrees with the code that produces its metrics."""

import json
import re

from bench import harness, ledger, traffic
from bench.workloads import WORKLOADS

BENCH = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_names_and_units_are_valid_and_unique():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in BENCH[key]]
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    assert all(UNIT.match(m["unit"])
               for key in ("end_to_end", "per_layer") for m in BENCH[key])


def test_workloads_are_the_harness_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in BENCH["workloads"])


def test_bounds():
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def _repeat(wall, ops, setup=0.5):
    return {"setup_s": setup, "wall_s": wall, "ops": ops,
            "peak_rss_mb": 100.0}


def test_end_to_end_metrics_emitted_with_units():
    repeats = [_repeat(2.0, [("a", 0.5), ("b", 1.5)], setup=0.7),
               _repeat(3.0, [("a", 1.0), ("b", 2.0)], setup=0.6)]
    setup_only = {"setup_s": 0.5}
    got = harness.end_to_end_metrics([setup_only] + repeats, repeats)
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in got.items()} == want
    assert got["wall_s"]["value"] == 2.5 and got["setup_s"]["value"] == 0.6
    assert got["wall_s"]["samples"] == [2.0, 3.0]


def test_per_layer_metrics_emitted_with_units():
    empty = {"names": [], "spans": [], "counts": {}, "gauges": {},
             "missing": []}
    got = ledger.per_layer_metrics(empty, 1.0, 1.0)
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert set(got) == set(want)
    assert {k: ledger.PER_LAYER[k] for k in got} == want


def test_every_per_layer_span_is_wrapped():
    spans = {t.span for t in ledger.TARGETS if t.span}
    for name in ledger.PER_LAYER:
        prefix, _, field = name.rpartition(".")
        if field in ("calls", "self_s", "busy_s") and \
                not name.startswith("kernels.backend."):
            assert prefix in spans, name


def test_service_detail_counts():
    ops = [("cold", 0.2)] * 42 + [("warm", 1e-4)] * (42 * traffic.WARM_PER_COLD)
    got = harness.detail_metrics("service", [_repeat(10.0, ops)])
    assert got["cold_request_p50_s"]["n"] == 42
    assert got["cold_request_p50_s"]["value"] == 0.2
    assert got["warm_request_p99_s"]["value"] == 1e-4
