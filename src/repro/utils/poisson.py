"""Poisson windows of uniformization series (Section 2.4 of the paper).

A uniformized transient quantity is a Poisson-weighted sum
``sum_k Pois(k; lam) * a_k``.  Both series in the package — the
distribution functions of :class:`~repro.phasetype.PhaseType` and
:func:`~repro.markov.uniformization.transient_distribution` — sum it
over the two-sided window that holds all but ``eps`` of the Poisson
mass, so the dropped terms weigh at most ``eps * max_k |a_k|``.

The window and weights are the formulas ``scipy.stats.poisson.interval``
and ``scipy.stats.poisson.pmf`` evaluate, taken from ``scipy.special``
directly: the values are bit-for-bit the same, at about a tenth of the
per-call cost, and ``scipy.stats`` (the heaviest import in the package)
stays off the import path.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

__all__ = ["poisson_window", "poisson_weights"]


def _quantile(q: float, lam: float) -> float:
    """Smallest ``k`` with ``P(Pois(lam) <= k) >= q``; ``nan`` past scipy's range."""
    k = float(np.ceil(special.pdtrik(q, lam)))
    below = max(k - 1.0, 0.0)
    return below if special.pdtr(below, lam) >= q else k


def poisson_window(lam: float, eps: float) -> tuple[int, int] | None:
    """Terms ``lo..hi`` (inclusive) holding ``1 - eps`` of Poisson(``lam``)'s mass.

    ``lo`` and ``hi - 1`` are the ``eps/2`` and ``1 - eps/2`` quantiles,
    i.e. ``scipy.stats.poisson.interval(1 - eps, lam)``; ``hi`` is
    widened by one term.  Returns ``None`` when the quantiles are not
    finite: scipy's Poisson quantile is ``nan`` from ``lam`` of about
    ``2e11`` on.
    """
    conf = 1.0 - eps
    lo = _quantile((1.0 - conf) / 2, lam)
    hi = _quantile((1.0 + conf) / 2, lam)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return None
    return int(lo), int(hi) + 1


def poisson_weights(lam: float, lo: int, hi: int) -> np.ndarray:
    """``Pois(k; lam)`` for ``k = lo..hi`` (what ``scipy.stats.poisson.pmf`` evaluates)."""
    k = np.arange(lo, hi + 1)
    return np.exp(special.xlogy(k, lam) - special.gammaln(k + 1) - lam)
