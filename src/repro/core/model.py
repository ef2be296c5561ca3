"""Model façade: :class:`GangSchedulingModel` and :class:`SolvedModel`."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import SystemConfig
from repro.core.fixed_point import (
    FixedPointOptions,
    FixedPointResult,
    IterationRecord,
    run_fixed_point,
)
from repro.core.measures import ClassMeasures, compute_measures
from repro.core.statespace import ClassStateSpace
from repro.kernels import resolve_backend
from repro.obs.trace import StageTimings, span
from repro.phasetype import PhaseType
from repro.policy import SchedulingPolicy, resolve_policy
from repro.qbd.stationary import QBDStationaryDistribution

__all__ = ["GangSchedulingModel", "SolvedModel", "ClassResult"]


@dataclass(frozen=True)
class ClassResult:
    """Everything the analysis produced for one job class.

    For a *saturated* class (unstable at the fixed point — its share
    of the cycle cannot carry its load), ``stationary`` is ``None``
    and the measures are infinite; ``stable`` distinguishes the cases.
    """

    name: str
    space: ClassStateSpace
    stationary: QBDStationaryDistribution | None
    vacation: PhaseType
    measures: ClassMeasures

    @property
    def stable(self) -> bool:
        return self.stationary is not None

    @property
    def mean_jobs(self) -> float:
        """``N_p``, the paper's headline measure."""
        return self.measures.mean_jobs

    @property
    def mean_response_time(self) -> float:
        """``T_p = N_p / lambda_p``."""
        return self.measures.mean_response_time


@dataclass(frozen=True)
class SolvedModel:
    """Converged (or heavy-traffic) solution of the full system."""

    config: SystemConfig
    classes: tuple[ClassResult, ...]
    history: tuple[IterationRecord, ...]
    converged: bool
    #: Wall-clock seconds per solver-pipeline stage (assemble,
    #: stability, rsolve, boundary, extract, reduce, recombine,
    #: measures), accumulated over the whole solve.
    timings: dict[str, float] = field(default_factory=dict, compare=False)
    #: Lazily built per-class :class:`ClassDistributions` cache
    #: (see :meth:`distributions`); never compared.
    _distributions: dict = field(default_factory=dict, compare=False,
                                 repr=False)

    @property
    def iterations(self) -> int:
        return len(self.history)

    def distributions(self, p: int):
        """Response/waiting-time laws of class ``p``, lazily cached.

        Returns a :class:`repro.metrics.distributions.ClassDistributions`;
        saturated or unsupported classes yield an explicit marker kind
        instead of raising, so sweep grid points degrade gracefully.
        """
        got = self._distributions.get(p)
        if got is None:
            from repro.metrics.distributions import class_distributions
            got = class_distributions(self, p)
            self._distributions[p] = got
        return got

    def mean_jobs(self, p: int | None = None) -> float:
        """``N_p`` for one class, or the system total ``sum_p N_p``."""
        if p is not None:
            return self.classes[p].mean_jobs
        return sum(c.mean_jobs for c in self.classes)

    def mean_response_time(self, p: int) -> float:
        """``T_p`` for class ``p``."""
        return self.classes[p].mean_response_time

    def tail_probability(self, p: int, k: int) -> float:
        """``P(N_p > k)`` (1.0 for a saturated class)."""
        if not self.classes[p].stable:
            return 1.0
        return self.classes[p].stationary.tail_probability(k)

    def describe(self) -> str:
        """Multi-line report of the solution."""
        lines = [self.config.describe(),
                 f"fixed point: {self.iterations} iteration(s), "
                 f"converged={self.converged}"]
        for p, cr in enumerate(self.classes):
            m = cr.measures
            lines.append(
                f"  {cr.name}: N={m.mean_jobs:.4f}  T={m.mean_response_time:.4f}  "
                f"waiting={m.mean_jobs_waiting:.4f}  "
                f"svc-frac={m.service_fraction:.4f}  util={m.utilization:.4f}"
            )
        lines.append(f"  total N={self.mean_jobs():.4f}")
        return "\n".join(lines)


class GangSchedulingModel:
    """Analytic gang-scheduling model (the paper's contribution).

    Wraps the whole pipeline: per-class QBD construction
    (Section 4.1), matrix-geometric solve (Theorem 4.2), stability test
    (Theorem 4.4), heavy-traffic vacations (Theorem 4.1) and the
    fixed-point refinement (Theorem 4.3, Section 4.3).

    Parameters
    ----------
    config:
        The system description.
    reduction, rmatrix_method, solve_budget, truncation_mass, \
max_truncation_levels, backend:
        Passed through to :class:`~repro.core.fixed_point.FixedPointOptions`
        (``backend`` selects the dense/sparse kernels, see
        :mod:`repro.kernels`).

    Examples
    --------
    >>> from repro.core import ClassConfig, SystemConfig, GangSchedulingModel
    >>> cfg = SystemConfig(processors=8, classes=(
    ...     ClassConfig.markovian(1, arrival_rate=0.4, service_rate=0.5,
    ...                           quantum_mean=2.0, overhead_mean=0.01),
    ...     ClassConfig.markovian(8, arrival_rate=0.4, service_rate=4.0,
    ...                           quantum_mean=2.0, overhead_mean=0.01),
    ... ))
    >>> solved = GangSchedulingModel(cfg).solve()
    >>> solved.mean_jobs(0) > 0
    True
    """

    def __init__(self, config: SystemConfig, *, reduction: str = "moments2",
                 rmatrix_method: str = "logreduction",
                 solve_budget: float | None = None,
                 truncation_mass: float = 1e-9,
                 max_truncation_levels: int = 400,
                 backend: str = "auto",
                 policy: "SchedulingPolicy | None" = None):
        self.config = config
        self.policy = resolve_policy(policy) if policy is not None else None
        self._reduction = reduction
        self._rmatrix_method = rmatrix_method
        self._solve_budget = solve_budget
        self._truncation_mass = truncation_mass
        self._max_truncation_levels = max_truncation_levels
        self._backend = resolve_backend(backend)

    def _options(self, max_iterations: int, tol: float,
                 heavy_traffic_only: bool) -> FixedPointOptions:
        return FixedPointOptions(
            max_iterations=max_iterations,
            tol=tol,
            reduction=self._reduction,
            rmatrix_method=self._rmatrix_method,
            solve_budget=self._solve_budget,
            truncation_mass=self._truncation_mass,
            max_truncation_levels=self._max_truncation_levels,
            heavy_traffic_only=heavy_traffic_only,
            backend=self._backend,
            policy=self.policy,
        )

    def solve(self, *, max_iterations: int = 200, tol: float = 1e-5,
              heavy_traffic_only: bool = False) -> SolvedModel:
        """Solve the model; see :func:`repro.core.fixed_point.run_fixed_point`."""
        raw = run_fixed_point(
            self.config,
            self._options(max_iterations, tol, heavy_traffic_only),
        )
        return self._package(raw)

    def solve_heavy_traffic(self) -> SolvedModel:
        """The exact heavy-traffic solution of Theorem 4.1 (no iteration)."""
        return self.solve(heavy_traffic_only=True)

    def _package(self, raw: FixedPointResult) -> SolvedModel:
        classes = []
        views = resolve_policy(self.policy).views(self.config)
        acc = StageTimings()
        with span("stage.measures", timings=acc, stage="measures"):
            for p, cls in enumerate(self.config.classes):
                if raw.solutions[p] is None:
                    measures = ClassMeasures.saturated()
                else:
                    measures = compute_measures(
                        raw.spaces[p], raw.solutions[p],
                        arrival_rate=cls.arrival_rate,
                        service=views[p].service,
                        vacation=raw.vacations[p],
                    )
                classes.append(ClassResult(
                    name=self.config.class_names[p],
                    space=raw.spaces[p],
                    stationary=raw.solutions[p],
                    vacation=raw.vacations[p],
                    measures=measures,
                ))
        timings = dict(raw.timings)
        timings["measures"] = (timings.get("measures", 0.0)
                               + acc.as_dict().get("measures", 0.0))
        return SolvedModel(
            config=self.config,
            classes=tuple(classes),
            history=tuple(raw.history),
            converged=raw.converged,
            timings=timings,
        )
