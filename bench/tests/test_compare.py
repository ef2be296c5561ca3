from bench.compare import DETAIL_BOUND, compare_docs, judge

PARENT = [10.0, 10.1, 10.2, 9.9, 10.0]


def test_win():
    change = [8.0, 8.1, 8.2, 7.9, 8.0]
    assert judge(PARENT, change, 0.1)["status"] == "win"


def test_regression():
    change = [11.5, 11.6, 11.4, 11.5, 11.7]
    assert judge(PARENT, change, 0.1)["status"] == "regression"


def test_within_bound_is_same():
    change = [10.3, 10.2, 10.4, 10.1, 10.3]
    assert judge(PARENT, change, 0.1)["status"] == "same"


def test_unresolved_when_parent_spread_exceeds_bound():
    noisy = [8.0, 12.0, 9.0, 11.0, 10.0]
    assert judge(noisy, [10.5, 11.0, 9.5, 10.0, 12.5], 0.1)["status"] \
        == "unresolved"
    # ... unless every change run beats every parent run.
    assert judge(noisy, [5.0, 5.5, 6.0, 5.2, 5.1], 0.1)["status"] == "win"


def test_higher_is_better():
    assert judge(PARENT, [8.0] * 5, 0.1, "higher")["status"] == "regression"


def _doc(attempted, failed, samples, counts=None, detail=None):
    entry = {"attempted": attempted, "failed": failed,
             "metrics": {"wall_s": {"samples": samples}},
             "detail": {name: {"samples": s}
                        for name, s in (detail or {}).items()}}
    if counts is not None:
        entry["per_layer"] = {name: {"value": v, "unit": "count"}
                              for name, v in counts.items()}
    return {"workloads": {"figures": entry}}


BENCH = {"workloads": [{"name": "figures"}],
         "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower",
                         "bound": 0.1}]}


def _status(rows, metric):
    return {r["metric"]: r["status"] for r in rows}[metric]


def test_fail_ratio_may_not_rise():
    rows = compare_docs([_doc(10, 0, PARENT)], [_doc(10, 1, PARENT)], BENCH)
    assert _status(rows, "fail_ratio") == "regression"
    assert _status(rows, "wall_s") == "same"


def test_detail_timings_gated_at_detail_bound():
    slower = [v * 1.15 for v in PARENT]
    rows = compare_docs([_doc(1, 0, PARENT, detail={"slo_search_s": PARENT})],
                        [_doc(1, 0, PARENT, detail={"slo_search_s": slower})],
                        BENCH)
    row = {r["metric"]: r for r in rows}["slo_search_s"]
    assert row["bound"] == DETAIL_BOUND
    assert row["status"] == "regression"


def test_counts_compare_exactly():
    rows = compare_docs([_doc(1, 0, PARENT, {"calls": 5, "iters": 9})],
                        [_doc(1, 0, PARENT, {"calls": 5, "iters": 8})], BENCH)
    assert _status(rows, "calls") == "same"
    assert _status(rows, "iters") == "changed"
