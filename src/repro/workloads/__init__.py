"""Workload construction: the paper's figure presets and sweep helpers.

:mod:`~repro.workloads.presets` builds the exact configurations of the
paper's Section 5 experiments (Figures 2-5);
:mod:`~repro.workloads.sweeps` provides the generic one-parameter sweep
driver used by the benchmark harness;
:mod:`~repro.workloads.batched` is the batched lockstep engine the
driver dispatches to when ``batch > 1``.
"""

from repro.workloads.batched import plan_chunks
from repro.workloads.generators import (
    ClassTrace,
    TraceDrivenGangSimulation,
    WorkloadTrace,
    generate_trace,
)
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
    "generate_trace",
    "TraceDrivenGangSimulation",
]
