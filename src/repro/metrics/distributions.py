"""Per-class response/waiting-time distributions of a solved model.

:class:`ClassDistributions` is the distribution-first counterpart of
:class:`repro.core.measures.ClassMeasures`: where the measures carry
the paper's scalar means, this carries the *laws* — phase-type
response and waiting-time distributions with lazy ``quantile``,
``tail``, ``cdf``/``sf`` and moments — so every surface can report
percentiles and SLO probabilities.

Exactness is graded by ``kind``:

``"exact"``
    Both per-class streams are order-1 (Poisson arrivals, exponential
    service): the tagged-job construction of
    :mod:`repro.core.response` applies and the laws are exact.
``"moment"``
    Poisson arrivals but phase-type service: the tagged-job chain
    would need predecessor phases, so the response law is a
    two-moment phase-type fit obtained through the distributional
    Little's law ``E[N(N-1)] = lambda^2 E[T^2]`` (valid for
    FCFS-within-class under Poisson arrivals) from the exact
    queue-length moments.  The waiting-time law is unavailable.
``"saturated"``
    The class is unstable at the fixed point; response time diverges.
    Quantiles are ``inf``, tails are ``1.0`` — sweeps degrade to this
    marker instead of failing the grid point (mirroring
    :meth:`~repro.core.measures.ClassMeasures.saturated`).
``"unsupported"``
    Non-Poisson arrivals: the PASTA initial vector (and the
    distributional Little's law) do not apply; ``detail`` says why.
    Statistics evaluate to ``nan``.

Loss probability: with Poisson arrivals, PASTA makes the stationary
probability of finding ``>= K`` jobs exactly the fraction of arrivals
that would be rejected were the buffer truncated at capacity ``K`` —
:meth:`ClassDistributions.loss_probability` exposes it wherever the
model supports it (``None`` otherwise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from repro.metrics.quantiles import check_level
from repro.metrics.selectors import parse_metrics
from repro.phasetype import PhaseType
from repro.phasetype.fitting import fit_moments

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.model import SolvedModel
    from repro.core.statespace import ClassStateSpace
    from repro.qbd.stationary import QBDStationaryDistribution

__all__ = ["ClassDistributions", "class_distributions", "metric_values"]

_INF = float("inf")
_NAN = float("nan")


@dataclass(frozen=True)
class ClassDistributions:
    """Response/waiting-time laws of one job class.

    Attributes
    ----------
    kind:
        ``"exact"``, ``"moment"``, ``"saturated"`` or
        ``"unsupported"`` (see the module docstring).
    response:
        Response-time law ``T_p`` (``None`` for the marker kinds).
    detail:
        Human-readable provenance (construction used, or the reason a
        marker kind applies).
    arrival_poisson:
        Whether the class's arrivals are Poisson — the condition for
        PASTA-based statements like :meth:`loss_probability`.
    """

    kind: str
    response: PhaseType | None = None
    detail: str = ""
    arrival_poisson: bool = False
    #: Stationary queue-length law backing :meth:`loss_probability`;
    #: excluded from equality so marker instances compare by kind.
    stationary: "QBDStationaryDistribution | None" = field(
        default=None, repr=False, compare=False)
    #: The class's state space, from which :attr:`waiting` restricts
    #: ``response`` (``None`` unless ``kind == "exact"``).
    space: "ClassStateSpace | None" = field(
        default=None, repr=False, compare=False)

    @classmethod
    def saturated(cls) -> "ClassDistributions":
        """The marker for an unstable class (response time diverges)."""
        return cls(kind="saturated",
                   detail="class is saturated; response time diverges")

    @classmethod
    def unsupported(cls, reason: str, *,
                    stationary: "QBDStationaryDistribution | None" = None,
                    ) -> "ClassDistributions":
        """The marker for a class whose law cannot be constructed."""
        return cls(kind="unsupported", detail=reason, stationary=stationary)

    @cached_property
    def waiting(self) -> PhaseType | None:
        """Waiting-time law (``None`` unless ``kind == "exact"``).

        Built on first read by restricting :attr:`response` to the
        pre-service states; its ``atom_at_zero`` is the probability of
        entering service immediately.
        """
        if self.response is None or self.space is None:
            return None
        from repro.core.response import waiting_from_response
        return waiting_from_response(self.response, self.space)

    @property
    def supported(self) -> bool:
        """Whether a response-time law is available."""
        return self.response is not None

    @property
    def mean(self) -> float:
        """``E[T_p]`` (``inf`` saturated, ``nan`` unsupported)."""
        if self.kind == "saturated":
            return _INF
        if self.response is None:
            return _NAN
        return self.response.mean

    def moment(self, k: int) -> float:
        """``E[T_p^k]`` under the same marker conventions as ``mean``."""
        if self.kind == "saturated":
            return _INF
        if self.response is None:
            return _NAN
        return self.response.moment(k)

    def quantile(self, q: float) -> float:
        """``Q(q)`` of the response time (contract of
        :mod:`repro.metrics.quantiles`); ``inf`` for a saturated
        class at any ``q > 0``, ``nan`` when unsupported."""
        q = check_level(q)
        if self.kind == "saturated":
            return 0.0 if q == 0.0 else _INF
        if self.response is None:
            return _NAN
        return self.response.quantile(q)

    def cdf(self, t: float) -> float:
        """``P{T_p <= t}`` (``0.0`` saturated, ``nan`` unsupported)."""
        if self.kind == "saturated":
            return 0.0
        if self.response is None:
            return _NAN
        return self.response.cdf(t)

    def sf(self, t: float) -> float:
        """``P{T_p > t}`` (``1.0`` saturated, ``nan`` unsupported)."""
        if self.kind == "saturated":
            return 1.0
        if self.response is None:
            return _NAN
        return self.response.sf(t)

    def tail(self, t: float) -> float:
        """Alias of :meth:`sf` — the SLO violation probability."""
        return self.sf(t)

    def loss_probability(self, capacity: int) -> float | None:
        """Arrival loss fraction were the buffer truncated at ``capacity``.

        By PASTA this is the stationary probability of finding
        ``capacity`` or more jobs in system; available only with
        Poisson arrivals and a stationary law (``None`` otherwise,
        ``1.0`` for a saturated class — every arrival eventually finds
        a full buffer).
        """
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if self.kind == "saturated":
            return 1.0
        if self.stationary is None or not self.arrival_poisson:
            return None
        return float(self.stationary.tail_probability(capacity - 1))


def class_distributions(solved: "SolvedModel", p: int, *,
                        truncation_mass: float = 1e-10,
                        max_levels: int = 2000) -> ClassDistributions:
    """Construct :class:`ClassDistributions` for class ``p``.

    Never raises on a saturated or unsupported class — the marker
    kinds degrade gracefully so sweeps keep their grid points.
    """
    from repro.core.response import response_time_distribution

    cr = solved.classes[p]
    cls = solved.config.classes[p]
    if not cr.stable:
        return ClassDistributions.saturated()
    poisson = cls.arrival.order == 1
    if not poisson:
        return ClassDistributions.unsupported(
            f"class {p} has an order-{cls.arrival.order} interarrival PH; "
            "the PASTA initial vector requires Poisson arrivals",
            stationary=cr.stationary)
    if cls.service.order == 1:
        response = response_time_distribution(
            solved, p, truncation_mass=truncation_mass,
            max_levels=max_levels)
        return ClassDistributions(
            kind="exact", response=response,
            detail="tagged-job phase-type construction (exact)",
            arrival_poisson=True, stationary=cr.stationary, space=cr.space)

    # Phase-type service: exact tagged-job analysis would need the
    # predecessors' service phases.  Fit a PH to the exact response
    # moments instead, obtained from the queue-length moments through
    # the distributional Little's law (Poisson + FCFS-within-class):
    # E[N] = lambda E[T], E[N(N-1)] = lambda^2 E[T^2].
    lam = cls.arrival_rate
    meas = cr.measures
    m1 = meas.mean_response_time
    if not (math.isfinite(m1) and m1 > 0.0):  # pragma: no cover - guard
        return ClassDistributions.unsupported(
            f"class {p} has no finite mean response time to moment-match",
            stationary=cr.stationary)
    en = meas.mean_jobs
    en2 = meas.variance_jobs + en * en
    m2 = (en2 - en) / (lam * lam)
    moments = [m1]
    if math.isfinite(m2) and m2 > m1 * m1 * (1.0 + 1e-12):
        moments.append(m2)
    response = fit_moments(moments)
    return ClassDistributions(
        kind="moment", response=response,
        detail=f"{len(moments)}-moment phase-type fit via the "
               "distributional Little's law",
        arrival_poisson=True, stationary=cr.stationary)


def metric_values(solved: "SolvedModel", p: int, selectors) -> tuple[float, ...]:
    """Evaluate metric selectors for class ``p`` of a solved model.

    ``"mean"`` reads the exact Little's-law mean from the class
    measures; quantile and tail selectors evaluate the (lazily
    constructed, model-cached) response-time law.
    """
    parsed = parse_metrics(selectors)
    dist: ClassDistributions | None = None
    out: list[float] = []
    for sel in parsed:
        if sel.kind == "mean":
            out.append(float(solved.classes[p].measures.mean_response_time))
            continue
        if dist is None:
            dist = solved.distributions(p)
        if sel.kind == "quantile":
            out.append(float(dist.quantile(sel.value)))
        else:
            out.append(float(dist.tail(sel.value)))
    return tuple(out)
