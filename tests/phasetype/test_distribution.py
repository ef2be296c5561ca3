"""Tests for the PhaseType class."""

import numpy as np
import pytest
from scipy import stats

from repro.errors import NotAPhaseTypeError
from repro.phasetype import PhaseType, erlang, exponential, hyperexponential


class TestConstruction:
    def test_valid(self):
        d = PhaseType([1.0], [[-2.0]])
        assert d.order == 1

    def test_mismatched_sizes(self):
        with pytest.raises(NotAPhaseTypeError):
            PhaseType([1.0, 0.0], [[-2.0]])

    def test_rejects_recurrent_phase(self):
        with pytest.raises(NotAPhaseTypeError):
            PhaseType([0.5, 0.5], [[-1.0, 1.0], [1.0, -1.0]])

    def test_alpha_deficit_is_atom(self):
        d = PhaseType([0.7], [[-1.0]])
        assert d.atom_at_zero == pytest.approx(0.3)

    def test_readonly_views(self):
        d = exponential(1.0)
        with pytest.raises(ValueError):
            d.alpha[0] = 0.5
        with pytest.raises(ValueError):
            d.S[0, 0] = -3.0

    def test_repr_mentions_order_and_mean(self):
        r = repr(erlang(3, mean=1.5))
        assert "order=3" in r and "mean=1.5" in r

    def test_equality_and_hash(self):
        a = exponential(2.0)
        b = exponential(2.0)
        assert a == b and hash(a) == hash(b)
        assert a != exponential(3.0)


class TestMoments:
    def test_exponential_moments(self):
        d = exponential(2.0)
        assert d.mean == pytest.approx(0.5)
        assert d.variance == pytest.approx(0.25)
        assert d.scv == pytest.approx(1.0)
        assert d.moment(3) == pytest.approx(6 / 8)

    def test_erlang_moments(self):
        d = erlang(4, mean=2.0)
        assert d.mean == pytest.approx(2.0)
        assert d.scv == pytest.approx(0.25)
        assert d.std == pytest.approx(1.0)

    def test_hyperexponential_scv_above_one(self):
        d = hyperexponential([0.3, 0.7], [0.2, 2.0])
        assert d.scv > 1.0

    def test_moment_zero(self):
        assert exponential(1.0).moment(0) == 1.0

    def test_negative_moment_rejected(self):
        with pytest.raises(ValueError):
            exponential(1.0).moment(-1)

    def test_rate_is_reciprocal_mean(self):
        d = erlang(2, mean=4.0)
        assert d.rate == pytest.approx(0.25)

    def test_atom_shrinks_mean(self):
        full = exponential(1.0)
        with_atom = PhaseType([0.5], [[-1.0]])
        assert with_atom.mean == pytest.approx(0.5 * full.mean)


class TestDistributionFunctions:
    def test_exponential_cdf(self):
        d = exponential(2.0)
        x = np.array([0.0, 0.5, 1.0, 2.0])
        assert d.cdf(x) == pytest.approx(1 - np.exp(-2 * x))

    def test_sf_complements_cdf(self):
        d = erlang(3, mean=1.0)
        for x in [0.1, 0.7, 2.5]:
            assert d.cdf(x) + d.sf(x) == pytest.approx(1.0)

    def test_pdf_integrates_to_one(self):
        d = erlang(2, mean=1.0)
        xs = np.linspace(0, 30, 30_001)
        integral = np.trapezoid(d.pdf(xs), xs)
        assert integral == pytest.approx(1.0, abs=1e-5)

    def test_negative_argument_conventions(self):
        d = exponential(1.0)
        assert d.cdf(-1.0) == 0.0
        assert d.sf(-1.0) == 1.0
        assert d.pdf(-1.0) == 0.0

    def test_scalar_in_scalar_out(self):
        d = exponential(1.0)
        assert isinstance(d.cdf(1.0), float)

    def test_atom_at_zero_in_cdf(self):
        d = PhaseType([0.6], [[-1.0]])
        assert d.cdf(0.0) == pytest.approx(0.4)

    def test_laplace_transform_at_zero_is_one(self):
        d = erlang(2, mean=1.0)
        assert d.laplace_transform(0.0) == pytest.approx(1.0)

    def test_laplace_transform_exponential(self):
        lam = 2.0
        d = exponential(lam)
        for s in [0.5, 1.0, 3.0]:
            assert d.laplace_transform(s) == pytest.approx(lam / (lam + s))

    def test_quantile_roundtrip(self):
        d = erlang(3, mean=2.0)
        for q in [0.1, 0.5, 0.9]:
            assert d.cdf(d.quantile(q)) == pytest.approx(q, abs=1e-8)

    def test_quantile_below_atom_is_zero(self):
        d = PhaseType([0.5], [[-1.0]])
        assert d.quantile(0.3) == 0.0

    def test_quantile_rejects_bad_level(self):
        with pytest.raises(ValueError):
            exponential(1.0).quantile(1.0)

    def test_ulp_close_rates_stay_accurate(self):
        # scipy.linalg.expm's triangular shortcut returns garbage (a
        # negative superdiagonal) when two diagonal entries differ by
        # ~1 ulp; the uniformization evaluator must not.  Found by
        # hypothesis via maximum(exp, hypoexp) in test_properties.
        from repro.phasetype import hypoexponential, maximum

        r = 0.05
        g = hypoexponential([r, np.nextafter(r, 1.0)])
        near = erlang(2, rate=r)
        for x in [0.5, 1.0, 10.0]:
            assert g.cdf(x) == pytest.approx(near.cdf(x), abs=1e-10)
        f = exponential(9.0)
        m = maximum(f, g)
        for x in [0.5, 1.0, 10.0]:
            assert m.cdf(x) == pytest.approx(f.cdf(x) * g.cdf(x), abs=1e-10)


class TestSampling:
    def test_sample_scalar(self, rng):
        x = exponential(1.0).sample(rng)
        assert isinstance(x, float) and x >= 0

    def test_sample_mean_converges(self, rng):
        d = erlang(3, mean=2.0)
        xs = d.sample(rng, size=40_000)
        assert xs.mean() == pytest.approx(2.0, rel=0.03)

    def test_sample_variance_converges(self, rng):
        d = hyperexponential([0.4, 0.6], [0.5, 3.0])
        xs = d.sample(rng, size=60_000)
        assert xs.var() == pytest.approx(d.variance, rel=0.1)

    def test_atom_sampled_as_zero(self, rng):
        d = PhaseType([0.5], [[-1.0]])
        xs = d.sample(rng, size=5_000)
        assert np.mean(xs == 0.0) == pytest.approx(0.5, abs=0.03)

    def test_negative_size_rejected(self, rng):
        with pytest.raises(ValueError):
            exponential(1.0).sample(rng, size=-1)


class TestUtilities:
    def test_rescaled(self):
        d = erlang(2, mean=1.0).rescaled(5.0)
        assert d.mean == pytest.approx(5.0)
        assert d.scv == pytest.approx(0.5)

    def test_rescaled_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            exponential(1.0).rescaled(0.0)

    def test_embedded_generator_rows_sum_zero(self):
        Q = erlang(3, mean=1.0).embedded_generator()
        assert np.allclose(Q.sum(axis=1), 0.0)
        assert Q.shape == (4, 4)

    def test_irreducible_representation(self):
        assert erlang(2, mean=1.0).is_irreducible_representation()

    def test_trimmed_removes_unreachable(self):
        # Phase 2 unreachable: alpha mass only on phase 0, no 0->1 rate.
        d = PhaseType([1.0, 0.0], [[-1.0, 0.0], [0.0, -2.0]])
        assert not d.is_irreducible_representation()
        t = d.trimmed()
        assert t.order == 1
        assert t.mean == pytest.approx(d.mean)

    def test_trimmed_noop_when_irreducible(self):
        d = erlang(2, mean=1.0)
        assert d.trimmed() is d


def _series_oracle(d, x):
    """``(cdf, sf, pdf)`` at ``x > 0`` from the from-zero vector series.

    The evaluator before the cached power sums: re-run
    ``v <- v P`` from ``alpha`` and accumulate the Poisson-weighted
    vectors, then reduce once.  Kept as an independent oracle.
    """
    P, theta = d._uniformized
    lam = theta * x
    lo, hi = stats.poisson.interval(1.0 - 1e-14, lam)
    lo, hi = int(max(lo, 0)), int(hi) + 1
    weights = stats.poisson.pmf(np.arange(hi + 1), lam)
    front = np.zeros(d.order)
    v = np.array(d.alpha)
    for k in range(hi + 1):
        if k >= lo:
            front += weights[k] * v
        v = v @ P
    return 1.0 - front.sum(), front.sum(), front @ d.exit_rates


@pytest.fixture(scope="module")
def response_law():
    from repro.core import GangSchedulingModel
    from repro.core.response import response_time_distribution
    from repro.workloads import fig23_config

    solved = GangSchedulingModel(fig23_config(0.4, 2.0)).solve()
    return response_time_distribution(solved, 0)


def _laws(response_law):
    from repro.phasetype import hypoexponential

    return {
        "erlang": erlang(4, mean=2.0),
        "hyperexponential": hyperexponential([0.3, 0.7], [0.2, 2.0]),
        "ulp-close": hypoexponential([0.05, np.nextafter(0.05, 1.0)]),
        "atom": PhaseType([0.4, 0.3], [[-1.0, 0.5], [0.0, -2.0]]),
        "fig2-response": response_law,
    }


class TestCachedUniformization:
    XS = [0.05, 0.7, 3.0, 12.0]

    @pytest.mark.parametrize(
        "name", ["erlang", "hyperexponential", "ulp-close", "atom",
                 "fig2-response"])
    def test_matches_from_zero_series(self, response_law, name):
        d = _laws(response_law)[name]
        fresh = PhaseType(d.alpha, d.S)
        for x in self.XS:
            want = _series_oracle(fresh, x)
            got = (d.cdf(x), d.sf(x), d.pdf(x))
            assert got == pytest.approx(want, rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("name", ["ulp-close", "fig2-response"])
    def test_values_do_not_depend_on_probe_order(self, response_law, name):
        d = _laws(response_law)[name]
        shared = PhaseType(d.alpha, d.S)
        # Largest first, then smaller, then beyond the first largest.
        xs = [12.0, 0.7, 3.0, 0.05, 25.0, 6.0]
        for fn in ("sf", "cdf", "pdf"):
            for x in xs:
                fresh = PhaseType(d.alpha, d.S)
                assert getattr(shared, fn)(x) == getattr(fresh, fn)(x)

    @pytest.mark.parametrize("x", [1e6, 1e20])
    @pytest.mark.parametrize(
        "name", ["erlang", "hyperexponential", "atom", "fig2-response"])
    def test_huge_threshold_gives_the_limits_at_infinity(
            self, response_law, name, x):
        # theta * x = 1e22 is past scipy's Poisson quantile (nan), and
        # 1e6 would need ~theta * 1e6 series terms: both are answered
        # once c_k has decayed below 1e-16, from a short prefix.
        d = _laws(response_law)[name]
        fresh = PhaseType(d.alpha, d.S)
        assert (fresh.cdf(x), fresh.sf(x), fresh.pdf(x)) == (1.0, 0.0, 0.0)
        assert fresh.__dict__["_sums"][0].size <= 2 ** 15

    def test_limits_at_infinity_and_nan(self):
        d = erlang(3, mean=1.0)
        assert (d.cdf(np.inf), d.sf(np.inf), d.pdf(np.inf)) == (1.0, 0.0, 0.0)
        for fn in (d.cdf, d.sf, d.pdf):
            assert np.isnan(fn(np.nan))
        assert "_sums" not in d.__dict__
        got = d.sf(np.array([1.0, np.inf, np.nan]))
        assert got[0] == d.sf(1.0) and got[1] == 0.0 and np.isnan(got[2])

    def test_concurrent_probes_see_whole_sequences(self, response_law):
        import sys
        import threading

        xs = [0.05, 0.7, 3.0, 6.0, 12.0, 25.0]
        want = {x: PhaseType(response_law.alpha, response_law.S).sf(x)
                for x in xs}
        shared = PhaseType(response_law.alpha, response_law.S)
        got, errors = [], []

        def probe(seed):
            order = np.random.default_rng(seed).permutation(xs)
            try:
                got.extend((x, shared.sf(x)) for x in order)
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=probe, args=(seed,))
                       for seed in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert len(got) == 8 * len(xs)
        assert all(value == want[x] for x, value in got)
