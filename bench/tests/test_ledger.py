import sys
import types

import pytest

from bench import ledger


def _trace(spans, names, counts=None):
    return {"names": names, "spans": spans, "counts": counts or {},
            "gauges": {}, "missing": []}


def test_self_time_subtracts_nested_children():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds b [6, 7].
    names = ["a", "b", "c"]
    spans = [[0, 0.0, 10.0, -1], [1, 1.0, 4.0, 0], [2, 5.0, 9.0, 0],
             [1, 6.0, 7.0, 2]]
    stats = ledger.span_stats(_trace(spans, names))
    assert stats["a"] == pytest.approx([1, 10.0, 3.0])
    assert stats["b"] == pytest.approx([2, 4.0, 4.0])
    assert stats["c"] == pytest.approx([1, 4.0, 3.0])


def test_self_time_counts_overlapping_children_once():
    spans = [[0, 0.0, 10.0, -1], [1, 2.0, 6.0, 0], [1, 4.0, 8.0, 0],
             [1, 9.0, 12.0, 0]]
    stats = ledger.span_stats(_trace(spans, ["a", "b"]))
    # Children cover [2, 8] and [9, 10] inside the parent: 7 s.
    assert stats["a"][2] == pytest.approx(3.0)


def test_layer_of_uses_module_names():
    assert ledger.layer_of("qbd.rmatrix.solve_R") == "qbd"
    assert ledger.layer_of("core.vacation.reduce_order") == "core.vacation"


def test_wrappers_patch_every_importer_and_restore():
    home = types.ModuleType("fakepkg.home")
    user = types.ModuleType("fakepkg.user")

    def leaf(x):
        return x + 1

    def outer(x):
        return user.leaf(x) * 2

    home.leaf, home.outer = leaf, outer
    user.leaf = leaf                   # ``from fakepkg.home import leaf``
    sys.modules.update({"fakepkg.home": home, "fakepkg.user": user})
    calls = []
    targets = (
        ledger.Target("fakepkg.home:outer", "home.outer"),
        ledger.Target("fakepkg.home:leaf", "home.leaf",
                      observe=lambda lg, a, k, r: calls.append(r)),
        ledger.Target("fakepkg.home:gone", "home.gone"),
    )
    try:
        lg = ledger.Ledger(targets, prefix="fakepkg")
        lg.install()
        assert home.outer(1) == 4
        assert user.leaf is not leaf and home.leaf is user.leaf
        lg.stop()
        assert home.outer(1) == 4      # stopped wrappers record nothing
        lg.uninstall()
        assert home.leaf is leaf and user.leaf is leaf and home.outer is outer
    finally:
        del sys.modules["fakepkg.home"], sys.modules["fakepkg.user"]
    trace = lg.to_dict()
    assert trace["missing"] == ["fakepkg.home:gone"]
    assert calls == [2]
    stats = ledger.span_stats(trace)
    assert stats["home.outer"][0] == 1 and stats["home.leaf"][0] == 1
    (_, _, _, parent), = [s for s in trace["spans"]
                          if trace["names"][s[0]] == "home.leaf"]
    assert trace["names"][trace["spans"][parent][0]] == "home.outer"


def test_per_layer_metrics_ratios_and_bases():
    names = ["phasetype.distribution.quantile", "phasetype.distribution.cdf",
             "qbd.rmatrix.solve_R"]
    spans = [[0, 0.0, 1.0, -1], [1, 0.1, 0.2, 0], [1, 0.3, 0.4, 0],
             [1, 2.0, 3.0, -1], [2, 4.0, 6.0, -1], [2, 6.0, 7.0, -1]]
    counts = {"qbd.rmatrix.solve_R.warm": 1, "pipeline.cache.lookups": 4,
              "pipeline.cache.hits": 1,
              "phasetype.distribution.order_sum": 30}
    m = ledger.per_layer_metrics(_trace(spans, names, counts), 10.0, 8.0)
    assert m["phasetype.distribution.cdf.calls"] == 3
    assert m["phasetype.distribution.cdf_per_quantile"] == 2
    assert m["phasetype.distribution.mean_order"] == 10
    assert m["phasetype.distribution.quantile.self_s"] == pytest.approx(0.8)
    assert m["qbd.rmatrix.solve_R.warm_ratio"] == 0.5
    assert m["pipeline.cache.hit_ratio"] == 0.25
    assert m["trace.overhead_ratio"] == 1.25
    assert m["trace.solver_share"] == pytest.approx(0.3)
    assert m["trace.distribution_share"] == pytest.approx(0.2)
    assert m["service.store.result_hit_ratio"] == 0.0     # no base: 0
