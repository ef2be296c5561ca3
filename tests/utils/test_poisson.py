"""The Poisson window of both uniformization series equals scipy.stats'."""

import numpy as np
import pytest
from scipy import stats

from repro.utils.poisson import poisson_weights, poisson_window

#: Rates from denormal-adjacent to the edge of scipy's Poisson quantile.
LAMS = np.concatenate([np.geomspace(1e-300, 1e11, 3000),
                       np.geomspace(1e-6, 5000, 3000), [1.0, 2.0, 100.0]])


def _scipy_window(lam, eps):
    lo, hi = stats.poisson.interval(1.0 - eps, lam)
    return int(max(lo, 0)), int(hi) + 1


@pytest.mark.parametrize("eps", [1e-14, 1e-12])
def test_window_and_weights_match_scipy_stats_bit_for_bit(eps):
    for lam in map(float, LAMS):
        window = poisson_window(lam, eps)
        assert window == _scipy_window(lam, eps), lam
        lo, hi = window
        if hi - lo > 20_000:
            continue
        weights = poisson_weights(lam, lo, hi)
        want = stats.poisson.pmf(np.arange(lo, hi + 1), lam)
        assert np.array_equal(weights, want), lam
        if hi <= 20_000:
            # transient_distribution took its weights from a range
            # starting at zero: the window's slice is the same bits.
            want = stats.poisson.pmf(np.arange(hi + 1), lam)[lo:]
            assert np.array_equal(weights, want), lam


@pytest.mark.parametrize("lam", [2e11, 1e13, 1e300, np.inf])
def test_window_past_scipy_range_is_none(lam):
    lo, hi = stats.poisson.interval(1.0 - 1e-14, lam)
    assert not (np.isfinite(lo) and np.isfinite(hi))
    assert poisson_window(lam, 1e-14) is None
