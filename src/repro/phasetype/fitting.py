"""Moment-matching construction of low-order PH distributions.

The non-heavy-traffic fixed point of Section 4.3 produces *effective
quantum* distributions whose exact PH representation has one phase per
truncated chain state — too large to feed back into the next round of
state-space construction.  The paper itself observes (citing the
insensitivity results of Schassberger and Walrand, its refs [21, 22,
26]) that steady-state means typically depend only on the first few
moments of the parameter distributions.  This module exploits that: it
replaces a large PH by a small one that matches two or three moments.

Two-moment matching uses the classical recipes:

* ``scv == 1`` — exponential;
* ``scv < 1`` — mixture of Erlang-(k-1) and Erlang-k with a common rate
  (Tijms' construction), exact for any ``scv in (0, 1]``;
* ``scv > 1`` — two-branch balanced-means hyperexponential.

Three-moment matching targets a two-phase Coxian via numerical solution
seeded from the two-moment fit, falling back (with a flag) when the
moment triple is infeasible for the family.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ValidationError
from repro.phasetype.builders import coxian, erlang, exponential, hyperexponential
from repro.phasetype.algebra import mixture
from repro.phasetype.distribution import PhaseType

__all__ = ["match_two_moments", "match_three_moments", "fit_moments"]


def match_two_moments(mean: float, scv: float) -> PhaseType:
    """PH distribution matching a mean and squared coefficient of variation.

    Parameters
    ----------
    mean:
        Target mean, positive.
    scv:
        Target squared coefficient of variation, positive.  Values very
        close to 0 produce high-order Erlangs; the order is capped at
        100 stages (SCV 0.01), which changes the matched SCV for
        smaller requests.

    Returns
    -------
    PhaseType
        Order 1 (exponential), order ``k <= 100`` (Erlang mixture) for
        ``scv < 1``, or order 2 (hyperexponential) for ``scv > 1``.
    """
    if mean <= 0:
        raise ValidationError(f"mean must be positive, got {mean}")
    if scv <= 0:
        raise ValidationError(f"scv must be positive, got {scv}")
    if abs(scv - 1.0) < 1e-12:
        return exponential(mean=mean)
    if scv > 1.0:
        # Balanced-means H2: p_i proportional to branch rate.
        root = math.sqrt((scv - 1.0) / (scv + 1.0))
        p1 = 0.5 * (1.0 + root)
        p2 = 1.0 - p1
        r1 = 2.0 * p1 / mean
        r2 = 2.0 * p2 / mean
        return hyperexponential([p1, p2], [r1, r2])
    # scv < 1: Erlang(k-1)/Erlang(k) mixture with common rate, where
    # 1/k <= scv <= 1/(k-1).
    k = max(2, math.ceil(1.0 / scv))
    if k > 100:
        k = 100  # cap the order; SCV floor of 1/100
        scv = max(scv, 1.0 / k)
    p = (1.0 / (1.0 + scv)) * (k * scv - math.sqrt(k * (1.0 + scv) - k * k * scv))
    p = min(max(p, 0.0), 1.0)
    rate = (k - p) / mean
    if p == 0.0:
        return erlang(k, rate)
    if p == 1.0:
        return erlang(k - 1, rate)
    return mixture([p, 1.0 - p], [erlang(k - 1, rate), erlang(k, rate)])


def _coxian2_moments(l1: float, l2: float, a: float) -> tuple[float, float, float]:
    """First three raw moments of a 2-phase Coxian (rates l1, l2, continue prob a)."""
    u = 1.0 / l1
    v = 1.0 / l2
    m1 = u + a * v
    m2 = 2.0 * (u * u + a * u * v + a * v * v)
    m3 = 6.0 * (u ** 3 + a * u * u * v + a * u * v * v + a * v ** 3)
    return m1, m2, m3


def match_three_moments(m1: float, m2: float, m3: float,
                        *, strict: bool = False) -> PhaseType:
    """PH distribution matching three raw moments when feasible.

    Tries a two-phase Coxian (which covers a large feasible region);
    if the numerical solve fails or the triple is outside the family's
    region, falls back to :func:`match_two_moments` on ``(m1, scv)``
    unless ``strict`` is set, in which case a
    :class:`~repro.errors.ValidationError` is raised.
    """
    if m1 <= 0 or m2 <= 0 or m3 <= 0:
        raise ValidationError("all moments must be positive")
    scv = m2 / m1 ** 2 - 1.0
    if scv <= 0:
        if strict:
            raise ValidationError(f"moment pair infeasible: scv={scv}")
        # Deterministic-ish: high-order Erlang on (m1, tiny scv).
        return match_two_moments(m1, max(scv + 1e-12, 1e-2))
    if abs(scv - 1.0) < 1e-9:
        exp_m3 = 6.0 * m1 ** 3
        if abs(m3 - exp_m3) / exp_m3 < 1e-6:
            return exponential(mean=m1)

    seed = match_two_moments(m1, scv)

    def residual(x):
        l1, l2, a_logit = x
        a = 1.0 / (1.0 + math.exp(-a_logit))
        c1, c2, c3 = _coxian2_moments(abs(l1), abs(l2), a)
        return [(c1 - m1) / m1, (c2 - m2) / m2, (c3 - m3) / m3]

    from scipy import optimize  # slow to load; only needed here

    # Seed from the two-moment fit's mean split.
    x0 = np.array([2.0 / m1, 1.0 / m1, 0.0])
    sol = optimize.least_squares(residual, x0, xtol=1e-14, ftol=1e-14, gtol=1e-14)
    l1, l2 = abs(sol.x[0]), abs(sol.x[1])
    a = 1.0 / (1.0 + math.exp(-sol.x[2]))
    ok = sol.success and float(np.max(np.abs(sol.fun))) < 1e-7 and l1 > 0 and l2 > 0
    if ok:
        return coxian([l1, l2], [1.0 - a, 1.0])
    if strict:
        raise ValidationError(
            f"three-moment match infeasible for Coxian-2: "
            f"m=({m1}, {m2}, {m3}), residual={np.max(np.abs(sol.fun)):.2e}"
        )
    return seed


def fit_moments(moments, *, strict: bool = False) -> PhaseType:
    """Dispatch on the number of supplied raw moments.

    ``moments`` is a sequence of 1–3 raw moments ``[m1]``, ``[m1, m2]``
    or ``[m1, m2, m3]``.  One moment yields an exponential; two, the
    two-moment match; three, the three-moment match.
    """
    ms = [float(m) for m in moments]
    if not 1 <= len(ms) <= 3:
        raise ValidationError(f"fit_moments takes 1-3 moments, got {len(ms)}")
    if len(ms) == 1:
        return exponential(mean=ms[0])
    if len(ms) == 2:
        scv = ms[1] / ms[0] ** 2 - 1.0
        if scv <= 0:
            if strict:
                raise ValidationError(f"moment pair infeasible: scv={scv}")
            scv = 1e-2
        return match_two_moments(ms[0], scv)
    return match_three_moments(ms[0], ms[1], ms[2], strict=strict)
