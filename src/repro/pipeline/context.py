"""Shared state of the staged fixed-point solve.

The pipeline keeps one :class:`ClassArtifacts` per job class — the
QBD, its solution, the last ``R`` matrix (the warm-start seed for the
next iteration) and the reusable assembly/extraction workspaces — plus
the policy's cycle views and per-stage wall-clock accounting, all
bundled in a :class:`SolveContext` created once per point of a
fixed-point run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import SystemConfig
from repro.core.statespace import ClassStateSpace
from repro.obs.trace import StageTimings
from repro.phasetype import PhaseType
from repro.pipeline.assembly import AssemblyWorkspace
from repro.pipeline.extract import ExtractionWorkspace
from repro.policy import ClassCycleView, resolve_policy
from repro.qbd.stationary import QBDStationaryDistribution
from repro.qbd.structure import QBDProcess

# ``StageTimings`` moved to :mod:`repro.obs.trace` with the
# observability layer (the pipeline stages now feed it through obs
# spans); re-exported here for compatibility.
__all__ = ["ClassArtifacts", "SolveContext", "StageTimings"]


@dataclass
class ClassArtifacts:
    """Everything the pipeline knows about one job class.

    ``R`` survives saturation episodes and vacation updates — the
    previous iterate is a good Newton seed even after the blocks move —
    and the workspaces survive everything except a change in the
    distributions they were built from.
    """

    index: int
    assembly: AssemblyWorkspace | None = None
    extraction: ExtractionWorkspace = field(default_factory=ExtractionWorkspace)
    space: ClassStateSpace | None = None
    process: QBDProcess | None = None
    vacation: PhaseType | None = None
    solution: QBDStationaryDistribution | None = None
    R: np.ndarray | None = None
    saturated: bool = False


@dataclass
class SolveContext:
    """One fixed-point run's worth of shared pipeline state."""

    config: SystemConfig
    opts: "FixedPointOptions"  # noqa: F821 - import cycle; typing only
    classes: list[ClassArtifacts]
    #: Per-class cycle views granted by the scheduling policy; every
    #: stage consumes these instead of the raw config (for the default
    #: round-robin they alias the config's own distributions).
    views: tuple[ClassCycleView, ...] = ()
    timings: StageTimings = field(default_factory=StageTimings)

    @classmethod
    def create(cls, config: SystemConfig, opts) -> "SolveContext":
        """Build a fresh context (one per point of a fixed-point run)."""
        policy = resolve_policy(getattr(opts, "policy", None))
        return cls(config=config, opts=opts,
                   classes=[ClassArtifacts(index=p)
                            for p in range(config.num_classes)],
                   views=policy.views(config))
