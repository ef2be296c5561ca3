"""Replication driver: independent runs, confidence intervals.

Steady-state simulation output is autocorrelated, so rather than
pretending within-run samples are i.i.d. we run ``R`` independent
replications (distinct seed streams), treat each run's point estimate
as one observation, and form Student-t confidence intervals across
replications — the textbook-safe approach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from repro.obs.trace import span

__all__ = ["ReplicationSummary", "run_replications", "run_until_precise",
           "SimPointEstimate", "simulate_scenario_point"]


@dataclass(frozen=True)
class ReplicationSummary:
    """Across-replication estimate for one scalar quantity per class.

    ``mean[p] +/- half_width[p]`` is the ``confidence``-level CI.
    """

    quantity: str
    mean: tuple[float, ...]
    half_width: tuple[float, ...]
    replications: int
    confidence: float

    def interval(self, p: int) -> tuple[float, float]:
        return (self.mean[p] - self.half_width[p], self.mean[p] + self.half_width[p])

    def contains(self, p: int, value: float) -> bool:
        lo, hi = self.interval(p)
        return lo <= value <= hi

    def describe(self) -> str:
        rows = [f"{self.quantity} ({self.replications} replications, "
                f"{self.confidence:.0%} CI)"]
        for p, (m, h) in enumerate(zip(self.mean, self.half_width)):
            rows.append(f"  class{p}: {m:.4f} +/- {h:.4f}")
        return "\n".join(rows)


def _metric_row(simulation, selector: str,
                num_classes: int) -> tuple[float, ...]:
    """Per-class selector estimates from a finished simulation.

    Every simulator in :mod:`repro.sim` keeps its per-class
    :class:`~repro.sim.stats.ClassStats` on ``.stats`` after a run;
    selectors evaluate on the raw sojourn samples there (the shared
    contract of :mod:`repro.metrics.quantiles`).
    """
    stats = getattr(simulation, "stats", None)
    if stats is None:  # pragma: no cover - non-standard simulator
        return (float("nan"),) * num_classes
    if not isinstance(stats, (list, tuple)):
        stats = [stats]
    return tuple(st.response_metric(selector) for st in stats)


def run_replications(factory, *, replications: int = 10, horizon: float,
                     warmup: float = 0.0, base_seed: int = 0,
                     confidence: float = 0.95,
                     metrics: tuple[str, ...] = (),
                     ) -> dict[str, ReplicationSummary]:
    """Run independent replications of a simulation.

    Parameters
    ----------
    factory:
        Callable ``(seed, warmup) -> simulation`` where the simulation
        has a ``run(horizon) -> SimulationReport`` method (all the
        simulators in :mod:`repro.sim` qualify).
    replications:
        Number of independent runs (``>= 2`` for intervals).
    horizon, warmup:
        Per-run time horizon and statistics warmup.
    base_seed:
        Replication ``r`` uses seed ``base_seed + r``.
    confidence:
        Two-sided confidence level of the returned intervals.
    metrics:
        Optional metric selectors (``"p99"``, ``"tail@t"``, …; see
        :mod:`repro.metrics.selectors`).  Each adds a
        ``"metric:<selector>"`` entry whose per-replication samples
        are the empirical per-class estimates, so analytic
        percentiles can be crosschecked against a Student-t CI.

    Returns
    -------
    dict mapping ``"mean_jobs"``, ``"mean_response_time"``,
    ``"throughput"`` — plus ``"metric:<selector>"`` per requested
    selector — to :class:`ReplicationSummary`.
    """
    if replications < 2:
        raise ValueError("need at least 2 replications for confidence intervals")
    samples: dict[str, list[tuple[float, ...]]] = {
        "mean_jobs": [], "mean_response_time": [], "throughput": [],
    }
    for sel in metrics:
        samples[f"metric:{sel}"] = []
    for r in range(replications):
        simulation = factory(base_seed + r, warmup)
        report = simulation.run(horizon)
        samples["mean_jobs"].append(report.mean_jobs)
        samples["mean_response_time"].append(report.mean_response_time)
        samples["throughput"].append(report.throughput)
        for sel in metrics:
            samples[f"metric:{sel}"].append(
                _metric_row(simulation, sel, len(report.mean_jobs)))

    return _summarize(samples, confidence)


def _summarize(samples: dict[str, list[tuple[float, ...]]],
               confidence: float) -> dict[str, ReplicationSummary]:
    replications = len(next(iter(samples.values())))
    # Student-t quantile: what scipy.stats.t.ppf(q, df) evaluates.
    tcrit = float(special.stdtrit(replications - 1, 0.5 + confidence / 2.0))
    out: dict[str, ReplicationSummary] = {}
    for name, rows in samples.items():
        arr = np.asarray(rows)          # (R, L)
        mean = arr.mean(axis=0)
        sd = arr.std(axis=0, ddof=1)
        hw = tcrit * sd / math.sqrt(replications)
        out[name] = ReplicationSummary(
            quantity=name,
            mean=tuple(float(m) for m in mean),
            half_width=tuple(float(h) for h in hw),
            replications=replications,
            confidence=confidence,
        )
    return out


@dataclass(frozen=True)
class SimPointEstimate:
    """Simulation estimate at one scenario grid point.

    ``half_width`` is the across-replication CI half-width on mean
    jobs (zeros for a single run, where no interval exists).  The raw
    detail survives on ``report`` (single run) or ``summaries``
    (replicated, the :func:`run_replications` dict).
    """

    mean_jobs: tuple[float, ...]
    mean_response_time: tuple[float, ...]
    half_width: tuple[float, ...]
    replications: int
    report: object | None = None
    summaries: dict | None = None
    #: Per-selector empirical estimates (``{"p99": (...per class...)}``)
    #: when the scenario asked for metric selectors; ``None`` otherwise.
    metrics: dict | None = None
    #: Matching CI half-widths (zeros for a single run).
    metric_half_width: dict | None = None

    def describe(self, class_names) -> str:
        if self.summaries is not None:
            return "\n".join(s.describe() for s in self.summaries.values())
        return self.report.describe(class_names)


def simulate_scenario_point(scenario, config) -> SimPointEstimate:
    """Simulate one concrete config under a scenario's engine spec.

    ``scenario`` is a :class:`repro.scenario.spec.Scenario` (duck-typed
    — this layer does not import :mod:`repro.scenario`, which sits
    above it); its engine spec supplies horizon, warmup fraction, base
    seed and replication count.  With ``replications >= 2`` the point
    is estimated across independent replications (Student-t CI);
    otherwise it is one seeded run.
    """
    from repro.sim.variants import simulation_for

    eng = scenario.engine
    policy = getattr(scenario.system, "policy", None)
    selectors = tuple(getattr(scenario.output, "metrics", ()) or ())
    if selectors == ("mean",):
        selectors = ()                  # nothing beyond the means
    with span("scenario.sim_point", scenario=scenario.name,
              replications=eng.replications):
        if eng.replications >= 2:
            summaries = run_replications(
                lambda seed, warmup: simulation_for(config, policy=policy,
                                                    seed=seed, warmup=warmup),
                replications=eng.replications, horizon=eng.horizon,
                warmup=eng.warmup, base_seed=eng.seed, metrics=selectors)
            jobs = summaries["mean_jobs"]
            metrics_est = metric_hw = None
            if selectors:
                metrics_est = {sel: summaries[f"metric:{sel}"].mean
                               for sel in selectors}
                metric_hw = {sel: summaries[f"metric:{sel}"].half_width
                             for sel in selectors}
            return SimPointEstimate(
                mean_jobs=jobs.mean,
                mean_response_time=summaries["mean_response_time"].mean,
                half_width=jobs.half_width,
                replications=eng.replications,
                summaries=summaries,
                metrics=metrics_est,
                metric_half_width=metric_hw,
            )
        simulation = simulation_for(config, policy=policy, seed=eng.seed,
                                    warmup=eng.warmup)
        report = simulation.run(eng.horizon)
        metrics_est = metric_hw = None
        if selectors:
            metrics_est = {sel: _metric_row(simulation, sel,
                                            config.num_classes)
                           for sel in selectors}
            metric_hw = {sel: (0.0,) * config.num_classes
                         for sel in selectors}
        return SimPointEstimate(
            mean_jobs=tuple(report.mean_jobs),
            mean_response_time=tuple(report.mean_response_time),
            half_width=(0.0,) * config.num_classes,
            replications=1,
            report=report,
            metrics=metrics_est,
            metric_half_width=metric_hw,
        )


def run_until_precise(factory, *, horizon: float, warmup: float = 0.0,
                      target_rel_half_width: float = 0.05,
                      quantity: str = "mean_jobs",
                      min_replications: int = 3, max_replications: int = 50,
                      base_seed: int = 0, confidence: float = 0.95,
                      ) -> dict[str, ReplicationSummary]:
    """Sequential replications until the CI is tight enough.

    Adds replications one at a time until every class's relative CI
    half-width on ``quantity`` drops below ``target_rel_half_width``
    (or the replication budget runs out).  The standard sequential
    procedure for "give me N_p to ±5%" questions — no horizon
    guesswork required.

    Returns the same summary dict as :func:`run_replications`.
    """
    if min_replications < 2:
        raise ValueError("need at least 2 replications for intervals")
    if not 0 < target_rel_half_width < 1:
        raise ValueError(
            f"target_rel_half_width must be in (0,1), got {target_rel_half_width}")
    samples: dict[str, list[tuple[float, ...]]] = {
        "mean_jobs": [], "mean_response_time": [], "throughput": [],
    }
    if quantity not in samples:
        raise ValueError(f"unknown quantity {quantity!r}")
    r = 0
    while r < max_replications:
        report = factory(base_seed + r, warmup).run(horizon)
        samples["mean_jobs"].append(report.mean_jobs)
        samples["mean_response_time"].append(report.mean_response_time)
        samples["throughput"].append(report.throughput)
        r += 1
        if r < min_replications:
            continue
        summary = _summarize(samples, confidence)[quantity]
        rel = [h / m if m > 0 else math.inf
               for m, h in zip(summary.mean, summary.half_width)]
        if max(rel) <= target_rel_half_width:
            break
    return _summarize(samples, confidence)
