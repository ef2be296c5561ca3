"""Discrete-event simulation of gang scheduling and baselines.

The simulator exercises the *exact* policy of Section 3.1 of the paper
(timeplexing cycle of PH quanta and overheads, ``c_p``-way space
sharing, FCFS queues, preemption at quantum end, switch-on-empty) from
the same stochastic assumptions as the analytic model, providing an
independent check on the analysis — and it implements the scheduling
variants and baselines the paper discusses around its model:

* :class:`~repro.sim.gang.GangSimulation` — the modeled policy;
* :mod:`~repro.sim.variants` — the SP2-style deviation the conclusion
  describes (idle partitions switch to the next class early);
* :mod:`~repro.sim.baselines` — pure time-sharing and pure
  space-sharing, the two poles of the introduction.

Everything runs on an in-house event-heap engine
(:class:`~repro.sim.engine.Simulator`); no external simulation
framework is used.
"""

from repro.sim.baselines import SpaceSharingSimulation, TimeSharingSimulation
from repro.sim.batch import BatchArrivalGangSimulation
from repro.sim.decomposed import VacationServerSimulation
from repro.sim.engine import Simulator
from repro.sim.gang import GangSimulation
from repro.sim.runner import (
    ReplicationSummary,
    SimPointEstimate,
    run_replications,
    run_until_precise,
    simulate_scenario_point,
)
from repro.sim.stats import ClassStats, SimulationReport
from repro.sim.variants import (
    MalleableSpeedupSimulation,
    PartitionLendingSimulation,
    PriorityCycleSimulation,
    WeightedQuantumSimulation,
    simulation_for,
)

__all__ = [
    "Simulator",
    "GangSimulation",
    "VacationServerSimulation",
    "PartitionLendingSimulation",
    "WeightedQuantumSimulation",
    "PriorityCycleSimulation",
    "MalleableSpeedupSimulation",
    "simulation_for",
    "TimeSharingSimulation",
    "SpaceSharingSimulation",
    "ClassStats",
    "SimulationReport",
    "run_replications",
    "run_until_precise",
    "ReplicationSummary",
    "SimPointEstimate",
    "simulate_scenario_point",
    "BatchArrivalGangSimulation",
]
