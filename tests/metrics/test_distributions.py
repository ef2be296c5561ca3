"""The four ``ClassDistributions`` kinds and the selector surface.

One configuration per kind: all-exponential Figure-2/3 workload
(``exact``), Erlang service under Poisson arrivals (``moment``), an
Erlang *arrival* stream (``unsupported``), and an overloaded hot class
(``saturated``) — plus the selector grammar that names the columns
every reporting surface shares.
"""

import gc
import math
import weakref

import numpy as np
import pytest

from repro.core import GangSchedulingModel, SystemConfig
from repro.core.config import ClassConfig
from repro.errors import UnstableSystemError, ValidationError
from repro.metrics import (
    ClassDistributions,
    MetricSelector,
    class_distributions,
    metric_values,
    parse_metric,
    parse_metrics,
)
from repro.phasetype import erlang, exponential
from repro.workloads.presets import fig23_config


def _solve(config):
    return GangSchedulingModel(config).solve()


def _class(arrival, service, *, name=""):
    return ClassConfig(partition_size=2, arrival=arrival, service=service,
                       quantum=exponential(mean=2.0),
                       overhead=exponential(mean=0.1), name=name)


@pytest.fixture(scope="module")
def exact_solved():
    return _solve(fig23_config(0.4, 2.0))


@pytest.fixture(scope="module")
def moment_solved():
    config = SystemConfig(processors=4, classes=(
        _class(exponential(0.3), erlang(2, mean=1.0)),))
    return _solve(config)


@pytest.fixture(scope="module")
def unsupported_solved():
    config = SystemConfig(processors=4, classes=(
        _class(erlang(2, mean=3.0), exponential(1.0)),))
    return _solve(config)


@pytest.fixture(scope="module")
def saturated_solved():
    # The hot class is hopelessly overloaded (lambda = 5 against mu = 1
    # on two partitions); the cold class keeps the system solvable.
    config = SystemConfig(processors=4, classes=(
        _class(exponential(5.0), exponential(1.0), name="hot"),
        _class(exponential(0.2), exponential(1.0), name="cold")))
    return _solve(config)


class TestExact:
    def test_kind_and_laws(self, exact_solved):
        dist = exact_solved.distributions(0)
        assert dist.kind == "exact"
        assert dist.supported
        assert dist.response is not None and dist.waiting is not None
        assert "tagged-job" in dist.detail
        assert dist.arrival_poisson

    def test_mean_matches_littles_law(self, exact_solved):
        for p in range(len(exact_solved.classes)):
            dist = exact_solved.distributions(p)
            assert dist.mean == pytest.approx(
                exact_solved.classes[p].mean_response_time, rel=1e-6)

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.95, 0.99])
    def test_tail_of_quantile_inverts(self, exact_solved, q):
        dist = exact_solved.distributions(0)
        assert dist.tail(dist.quantile(q)) == pytest.approx(1.0 - q,
                                                            abs=1e-6)

    def test_quantiles_are_monotone(self, exact_solved):
        dist = exact_solved.distributions(0)
        p50, p95, p99 = (dist.quantile(q) for q in (0.5, 0.95, 0.99))
        assert 0.0 < p50 < p95 < p99 < math.inf

    def test_waiting_has_atom_at_zero(self, exact_solved):
        """Some arrivals enter service immediately, so the waiting law
        carries a point mass at zero and ``Q(q)`` stays 0 below it."""
        waiting = exact_solved.distributions(0).waiting
        atom = waiting.cdf(0.0)
        assert 0.0 < atom < 1.0
        assert waiting.quantile(atom / 2.0) == 0.0

    def test_loss_probability_decreases_in_capacity(self, exact_solved):
        dist = exact_solved.distributions(0)
        losses = [dist.loss_probability(k) for k in (1, 2, 5, 20)]
        assert all(l is not None for l in losses)
        assert losses == sorted(losses, reverse=True)
        assert 0.0 <= losses[-1] < losses[0] <= 1.0
        with pytest.raises(ValueError):
            dist.loss_probability(0)

    def test_distributions_are_model_cached(self, exact_solved):
        assert exact_solved.distributions(0) is exact_solved.distributions(0)

    def test_waiting_law_built_on_first_read(self, exact_solved,
                                             monkeypatch):
        import repro.core.response as response

        expected = [response.waiting_time_distribution(exact_solved, p)
                    for p in range(len(exact_solved.classes))]

        def forbidden(*args, **kwargs):
            raise AssertionError("class_distributions built the waiting "
                                 "law through a second tagged-job build")

        monkeypatch.setattr(response, "waiting_time_distribution", forbidden)
        for p, want in enumerate(expected):
            dist = class_distributions(exact_solved, p)
            assert "waiting" not in vars(dist)
            waiting = dist.waiting
            assert dist.waiting is waiting
            assert np.array_equal(waiting.alpha, want.alpha)
            assert np.array_equal(waiting.S, want.S)

    def test_read_laws_leave_no_reference_cycle(self):
        """The model caches its ``ClassDistributions``; none of them may
        point back at the model, or only the cyclic GC could free it."""
        gc.collect()
        gc.disable()
        try:
            solved = _solve(fig23_config(0.4, 2.0))
            for p in range(len(solved.classes)):
                dist = solved.distributions(p)
                assert dist.waiting is not None
                assert dist.quantile(0.5) > dist.waiting.quantile(0.5)
            model = weakref.ref(solved)
            del solved, dist
            assert model() is None
        finally:
            gc.enable()


class TestMoment:
    def test_kind_and_mean_preserved(self, moment_solved):
        dist = moment_solved.distributions(0)
        assert dist.kind == "moment"
        assert "distributional Little" in dist.detail
        assert dist.waiting is None
        assert dist.mean == pytest.approx(
            moment_solved.classes[0].mean_response_time, rel=1e-9)

    def test_quantiles_usable(self, moment_solved):
        dist = moment_solved.distributions(0)
        q = dist.quantile(0.95)
        assert math.isfinite(q) and q > dist.mean
        assert dist.tail(q) == pytest.approx(0.05, abs=1e-6)

    def test_loss_probability_available(self, moment_solved):
        assert moment_solved.distributions(0).loss_probability(10) is not None


class TestUnsupported:
    def test_marker_semantics(self, unsupported_solved):
        dist = unsupported_solved.distributions(0)
        assert dist.kind == "unsupported"
        assert not dist.supported
        assert "PASTA" in dist.detail and "order-2" in dist.detail
        assert math.isnan(dist.mean)
        assert math.isnan(dist.quantile(0.99))
        assert math.isnan(dist.tail(1.0))
        assert dist.loss_probability(5) is None


class TestSaturated:
    def test_partial_saturation_degrades_not_raises(self, saturated_solved):
        hot = saturated_solved.distributions(0)
        cold = saturated_solved.distributions(1)
        assert hot.kind == "saturated"
        assert cold.kind == "exact"

    def test_marker_semantics(self, saturated_solved):
        hot = saturated_solved.distributions(0)
        assert hot.mean == math.inf
        assert hot.quantile(0.99) == math.inf
        assert hot.quantile(0.0) == 0.0
        assert hot.tail(1e9) == 1.0
        assert hot.loss_probability(1000) == 1.0

    def test_marker_constructor(self):
        marker = ClassDistributions.saturated()
        assert marker.kind == "saturated" and not marker.supported

    def test_all_saturated_still_raises(self):
        config = SystemConfig(processors=4, classes=(
            _class(exponential(5.0), exponential(1.0)),))
        with pytest.raises(UnstableSystemError):
            _solve(config)


class TestMetricValues:
    def test_values_match_distribution_calls(self, exact_solved):
        dist = exact_solved.distributions(0)
        values = metric_values(exact_solved, 0,
                               ("mean", "p95", "tail@10"))
        assert values[0] == pytest.approx(
            exact_solved.classes[0].measures.mean_response_time)
        assert values[1] == pytest.approx(dist.quantile(0.95))
        assert values[2] == pytest.approx(dist.tail(10.0))

    def test_mean_only_never_builds_distributions(self, moment_solved):
        values = metric_values(moment_solved, 0, ("mean",))
        assert values == (
            pytest.approx(moment_solved.classes[0].measures
                          .mean_response_time),)

    def test_saturated_values(self, saturated_solved):
        values = metric_values(saturated_solved, 0, ("p99", "tail@5"))
        assert values == (math.inf, 1.0)


class TestSelectorGrammar:
    def test_quantile_value_is_a_level(self):
        sel = parse_metric("p99")
        assert sel == MetricSelector(raw="p99", kind="quantile", value=0.99)
        assert parse_metric("p99.9").value == pytest.approx(0.999)

    def test_tail_and_mean(self):
        assert parse_metric("tail@2.5") == MetricSelector(
            raw="tail@2.5", kind="tail", value=2.5)
        assert parse_metric("mean").kind == "mean"

    @pytest.mark.parametrize("bad", ["p0", "p100", "pq", "tail@", "q95", ""])
    def test_unknown_selectors_rejected(self, bad):
        with pytest.raises(ValidationError):
            parse_metric(bad)

    def test_duplicates_rejected(self):
        with pytest.raises(ValidationError):
            parse_metrics(("mean", "p99", "mean"))

    @pytest.mark.parametrize("bad", ["tail@1e400", "tail@9e999"])
    def test_non_finite_tail_threshold_rejected(self, bad):
        # float("1e400") is inf; evaluating P{T > inf} used to turn
        # every grid point into a silent nan.
        with pytest.raises(ValidationError, match="finite"):
            parse_metric(bad)

    def test_non_finite_tail_slo_rejected(self):
        from repro.core.optimize import parse_slo_target

        with pytest.raises(ValidationError, match="finite"):
            parse_slo_target("tail@1e400<=0.05")
