"""The declarative Scenario spec tree.

A :class:`Scenario` is one complete, serializable experiment
description — *what system*, *which engine(s)*, *what to report* — the
single shape that every consumer (CLI subcommands, the sweep driver,
the simulator front-end, the figure benches) now speaks:

``SystemSpec``
    The system under study: an inline
    :class:`~repro.core.config.SystemConfig` *or* a named preset
    factory (``fig23``, ``fig4``, ``fig5``...) with fixed arguments,
    optionally crossed with a :class:`SweepAxis` (one factory argument
    swept over a grid).
``EngineSpec``
    How to evaluate it: ``analytic`` (the paper's fixed-point model),
    ``sim`` (the discrete-event simulator), or ``both`` (cross-engine
    validation); plus every solver knob the layers below understand —
    fixed-point tolerances, kernel backend, sweep workers and
    checkpoint store, simulation horizon/seed/replications, and the
    optimizer's evaluation budget.
``OutputSpec``
    What to report: which measures, an optional trace file, metrics.

The tree is frozen and JSON-round-trippable (see
:func:`repro.serialize.scenario_to_dict` /
:func:`~repro.serialize.scenario_from_dict`), which makes "run a new
experiment" a data problem: write a JSON file, feed it to
``repro-gang run`` or :func:`repro.scenario.run`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, fields

from repro.core.config import SystemConfig
from repro.errors import ValidationError
from repro.policy import SchedulingPolicy, resolve_policy
from repro.workloads.presets import (
    fig1_example_config,
    fig23_config,
    fig4_config,
    fig5_config,
    sp2_like_config,
)

__all__ = [
    "ENGINES",
    "MEASURES",
    "SYSTEM_FACTORIES",
    "SweepAxis",
    "SystemSpec",
    "EngineSpec",
    "OutputSpec",
    "Scenario",
    "engine_field_names",
]

#: Evaluation engines a scenario can request.
ENGINES = ("analytic", "sim", "both")

#: Per-class measures an :class:`OutputSpec` can ask for.
MEASURES = ("mean_jobs", "mean_response_time")

#: Named ``value -> SystemConfig`` factories a :class:`SystemSpec` can
#: reference instead of embedding a full system (the paper's Section 5
#: configurations; see :mod:`repro.workloads.presets`).
SYSTEM_FACTORIES = {
    "fig23": fig23_config,
    "fig4": fig4_config,
    "fig5": fig5_config,
    "fig1_example": fig1_example_config,
    "sp2_like": sp2_like_config,
}


@dataclass(frozen=True)
class SweepAxis:
    """One swept factory argument: ``parameter`` over ``values``."""

    parameter: str
    values: tuple[float, ...]

    def __post_init__(self):
        if not self.parameter:
            raise ValidationError("sweep axis needs a parameter name")
        values = tuple(float(v) for v in self.values)
        if not values:
            raise ValidationError(
                f"sweep axis {self.parameter!r} needs at least one value")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class SystemSpec:
    """The system under study: an inline config or a preset reference.

    Exactly one of ``preset``/``config`` must be given; a sweep
    ``axis`` requires ``preset`` (a fixed inline config has nothing to
    re-parameterize).

    ``policy`` is the scheduling policy shaping the timeplexing cycle.
    ``None`` — and an explicitly-passed default round-robin, which is
    normalized to ``None`` so specs compare and hash identically — means
    the paper's round-robin; anything else threads through the analytic
    solver, the simulator, and the canonical scenario key.
    """

    preset: str | None = None
    args: dict = field(default_factory=dict)
    config: SystemConfig | None = None
    axis: SweepAxis | None = None
    policy: SchedulingPolicy | None = None

    def __post_init__(self):
        if (self.preset is None) == (self.config is None):
            raise ValidationError(
                "SystemSpec needs exactly one of preset= or config=")
        if self.preset is not None and self.preset not in SYSTEM_FACTORIES:
            raise ValidationError(
                f"unknown system preset {self.preset!r}; "
                f"known: {sorted(SYSTEM_FACTORIES)}")
        if self.axis is not None and self.preset is None:
            raise ValidationError(
                "a sweep axis requires a preset system (an inline config "
                "cannot be re-parameterized)")
        if self.policy is not None:
            pol = resolve_policy(self.policy)
            # Round-robin is the absence of a policy: normalizing keeps
            # the canonical hash (and the warm service store) unchanged.
            object.__setattr__(self, "policy",
                               None if pol.is_default else pol)
        object.__setattr__(self, "args", dict(self.args))

    def config_for(self, value: float | None = None) -> SystemConfig:
        """Build the concrete system, at ``value`` on the axis if swept."""
        if self.config is not None:
            return self.config
        kwargs = dict(self.args)
        if self.axis is not None:
            if value is None:
                raise ValidationError(
                    f"swept system needs a value for {self.axis.parameter!r}")
            kwargs[self.axis.parameter] = value
        return SYSTEM_FACTORIES[self.preset](**kwargs)


@dataclass(frozen=True)
class EngineSpec:
    """Which engine(s) to run and every knob they understand.

    The analytic fields mirror
    :class:`~repro.core.fixed_point.FixedPointOptions`; the sim fields
    mirror the simulator front-end in :mod:`repro.sim.runner`;
    ``max_evaluations`` is the optimizer's solve budget
    (:func:`repro.core.optimize.optimize_quantum`).  The CLI derives
    every subcommand's engine flags from these fields (one schema, no
    parity drift — see ``repro.cli.ENGINE_FLAGS``).
    """

    engine: str = "analytic"
    # Analytic solver knobs.
    backend: str = "auto"
    reduction: str = "moments2"
    rmatrix_method: str = "logreduction"
    max_iterations: int = 200
    tol: float = 1e-5
    heavy_traffic_only: bool = False
    #: Wall-clock budget in seconds for each R-matrix solve of the
    #: fallback chain (the ``budget`` of
    #: :func:`~repro.resilience.fallback.resilient_solve_R`; checked
    #: between attempts and inside substitution and cyclic-reduction
    #: attempts).  A logarithmic-reduction attempt needs none, on the
    #: stack or in the chain: it is bounded at 64 doubling or 8 Newton
    #: steps.  ``None`` disables the clock.
    solve_budget: float | None = None
    # Sweep execution knobs (not hashed).  ``workers`` or
    # ``checkpoint`` makes :func:`repro.scenario.run` serve a swept
    # scenario through the service's result store and supervised
    # worker pool.
    #: Spawned worker processes (``None``/``0``/``1``: solve inline).
    workers: int | None = None
    #: Result-store directory (the ``serve --store`` format) that
    #: persists completed points; a rerun resumes from it.
    checkpoint: str | None = None
    #: Sweep chunk width: solve up to this many adjacent grid points at
    #: once in lockstep (:mod:`repro.workloads.batched`; stacked BLAS,
    #: each point's single-solve numbers).  ``0`` (default) means
    #: :data:`repro.workloads.sweeps.CHUNK_POINTS`; ``1`` solves one
    #: point at a time.  The daemon's shards stay one point unless it
    #: is above 1.
    batch_points: int = 0
    # Simulation knobs.
    horizon: float = 20_000.0
    seed: int = 0
    replications: int = 1
    warmup_fraction: float = 0.1
    # Optimizer budget.
    max_evaluations: int = 60

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ValidationError(
                f"engine must be one of {ENGINES}, got {self.engine!r}")
        if self.replications < 1:
            raise ValidationError(
                f"replications must be >= 1, got {self.replications}")
        if self.horizon <= 0:
            raise ValidationError(f"horizon must be > 0, got {self.horizon}")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValidationError(
                f"warmup_fraction must lie in [0, 1), got {self.warmup_fraction}")
        if self.max_evaluations < 1:
            raise ValidationError(
                f"max_evaluations must be >= 1, got {self.max_evaluations}")
        if self.solve_budget is not None and self.solve_budget <= 0:
            raise ValidationError(
                f"solve_budget must be > 0 seconds, got {self.solve_budget}")
        if self.batch_points < 0:
            raise ValidationError(
                f"batch_points must be >= 0, got {self.batch_points}")

    @property
    def analytic(self) -> bool:
        return self.engine in ("analytic", "both")

    @property
    def simulated(self) -> bool:
        return self.engine in ("sim", "both")

    def model_kwargs(self) -> dict:
        """Keyword arguments for :class:`~repro.core.model.GangSchedulingModel`."""
        return {"backend": self.backend, "reduction": self.reduction,
                "rmatrix_method": self.rmatrix_method,
                "solve_budget": self.solve_budget}

    def solve_kwargs(self) -> dict:
        """Keyword arguments for ``GangSchedulingModel.solve``."""
        return {"max_iterations": self.max_iterations, "tol": self.tol,
                "heavy_traffic_only": self.heavy_traffic_only}

    @property
    def warmup(self) -> float:
        """Simulation warmup time implied by the horizon."""
        return self.horizon * self.warmup_fraction


@dataclass(frozen=True)
class OutputSpec:
    """What to report: measures, metric selectors, observability.

    ``metrics`` names the response-time statistics to report per class
    — ``("mean",)`` by default, extendable with quantile and tail
    selectors such as ``("mean", "p95", "p99", "tail@2.5")`` (see
    :mod:`repro.metrics.selectors`).  Anything beyond the default
    makes the engines extract per-class response-time *distributions*
    alongside the scalar measures.

    ``collect_metrics`` arms the in-process observability registry
    (the CLI's ``--metrics`` flag; historically this field was the
    boolean ``metrics``, which is still accepted and coerced).
    """

    measures: tuple[str, ...] = ("mean_jobs", "mean_response_time")
    trace: str | None = None
    metrics: tuple[str, ...] = ("mean",)
    collect_metrics: bool = False

    def __post_init__(self):
        measures = tuple(str(m) for m in self.measures)
        unknown = [m for m in measures if m not in MEASURES]
        if unknown:
            raise ValidationError(
                f"unknown measures {unknown}; known: {list(MEASURES)}")
        object.__setattr__(self, "measures", measures)
        metrics = self.metrics
        if isinstance(metrics, bool):
            # Legacy schema: ``metrics`` was the observability toggle.
            object.__setattr__(self, "collect_metrics",
                               bool(self.collect_metrics) or metrics)
            metrics = ("mean",)
        else:
            metrics = tuple(str(m) for m in metrics)
            if not metrics:
                metrics = ("mean",)
            from repro.metrics.selectors import parse_metrics
            parse_metrics(metrics)      # validate, reject duplicates
        object.__setattr__(self, "metrics", metrics)

    @property
    def wants_distributions(self) -> bool:
        """Whether any selector needs more than the scalar means."""
        return any(m != "mean" for m in self.metrics)


@dataclass(frozen=True)
class Scenario:
    """One complete experiment: system x engine x output."""

    name: str
    system: SystemSpec
    engine: EngineSpec = EngineSpec()
    output: OutputSpec = OutputSpec()
    description: str = ""

    @property
    def axis(self) -> SweepAxis | None:
        return self.system.axis

    @property
    def parameter(self) -> str | None:
        """Display name of the swept quantity (``None`` if unswept)."""
        return self.system.axis.parameter if self.system.axis else None

    def grid(self) -> tuple[float, ...] | None:
        return self.system.axis.values if self.system.axis else None

    def with_engine(self, **overrides) -> "Scenario":
        """A copy with engine fields replaced (``None`` values ignored).

        The CLI adapters use this to layer flag overrides on top of a
        preset or file-loaded scenario without disturbing its other
        knobs.
        """
        overrides = {k: v for k, v in overrides.items() if v is not None}
        if not overrides:
            return self
        return dataclasses.replace(
            self, engine=dataclasses.replace(self.engine, **overrides))

    def with_output(self, **overrides) -> "Scenario":
        """A copy with output fields replaced (``None`` values ignored)."""
        overrides = {k: v for k, v in overrides.items() if v is not None}
        if not overrides:
            return self
        return dataclasses.replace(
            self, output=dataclasses.replace(self.output, **overrides))

    def with_grid(self, values) -> "Scenario":
        """A copy swept over different grid values (requires an axis)."""
        if self.system.axis is None:
            raise ValidationError(
                f"scenario {self.name!r} has no sweep axis to re-grid")
        axis = SweepAxis(self.system.axis.parameter,
                         tuple(float(v) for v in values))
        return dataclasses.replace(
            self, system=dataclasses.replace(self.system, axis=axis))

    def with_policy(self, policy: SchedulingPolicy | None) -> "Scenario":
        """A copy evaluated under a different scheduling policy.

        ``None`` leaves the scenario untouched (flag not given); an
        explicit round-robin is normalized away by ``SystemSpec``.
        """
        if policy is None:
            return self
        return dataclasses.replace(
            self, system=dataclasses.replace(self.system, policy=policy))


def engine_field_names() -> tuple[str, ...]:
    """The :class:`EngineSpec` field names (the shared CLI flag schema)."""
    return tuple(f.name for f in fields(EngineSpec))
