"""Workload construction: the paper's figure presets and sweep helpers.

:mod:`~repro.workloads.presets` builds the exact configurations of the
paper's Section 5 experiments (Figures 2-5);
:mod:`~repro.workloads.sweeps` provides the generic one-parameter sweep
driver used by the benchmark harness;
:mod:`~repro.workloads.traces` replays a recorded job stream through
the gang simulator;
:mod:`~repro.workloads.batched` is the lockstep engine every
in-process sweep runs on: it solves the grid in chunks of adjacent
points, :data:`~repro.workloads.sweeps.CHUNK_POINTS` (8) wide unless
the sweep's ``batch`` says otherwise (``batch=1`` solves one point at a
time).
"""

from repro.workloads.batched import plan_chunks
from repro.workloads.presets import (
    PAPER_SERVICE_RATES,
    fig1_example_config,
    fig23_config,
    fig4_config,
    fig5_config,
    sp2_like_config,
)
from repro.workloads.sweeps import (
    SweepPoint,
    SweepResult,
    sweep,
    sweep_scenario,
)
from repro.workloads.traces import (
    ClassTrace,
    TraceDrivenGangSimulation,
    WorkloadTrace,
)

__all__ = [
    "PAPER_SERVICE_RATES",
    "fig1_example_config",
    "fig23_config",
    "fig4_config",
    "fig5_config",
    "sp2_like_config",
    "plan_chunks",
    "sweep",
    "sweep_scenario",
    "SweepPoint",
    "SweepResult",
    "ClassTrace",
    "WorkloadTrace",
    "TraceDrivenGangSimulation",
]
