"""The paper's contribution: the gang-scheduling queueing model.

The model of Section 3: ``P`` identical processors, ``L`` job classes,
class ``p`` running on partitions of ``g(p)`` processors
(``c_p = P / g(p)`` partitions available during its time slice), FCFS
queues, and a timeplexing cycle of PH quanta separated by PH
context-switch overheads, with an early switch when a queue empties.

Public surface:

* :class:`~repro.core.config.ClassConfig` /
  :class:`~repro.core.config.SystemConfig` — model description;
* :class:`~repro.core.model.GangSchedulingModel` — the solver façade
  (heavy-traffic initialization + fixed-point iteration over the
  vacation distributions);
* :class:`~repro.core.model.SolvedModel` — per-class stationary
  results, mean jobs ``N_p`` (eq. 37), response times ``T_p``
  (Little's law), tails and diagnostics.
"""

from repro.core.batchmodel import BatchGangSchedulingModel, BatchSolvedModel
from repro.core.config import ClassConfig, SystemConfig
from repro.core.model import GangSchedulingModel, SolvedModel
from repro.core.optimize import (
    SLOTarget,
    optimize_cycle_split,
    optimize_priority_order,
    optimize_quantum,
    optimize_quantum_for_slo,
    optimize_weights,
    parse_slo_target,
    slo_objective,
    total_jobs_objective,
    weighted_response_objective,
)
from repro.core.response import (
    response_time_distribution,
    waiting_time_distribution,
)
from repro.core.statespace import ClassStateSpace
from repro.core.vacation import heavy_traffic_vacation

__all__ = [
    "ClassConfig",
    "SystemConfig",
    "GangSchedulingModel",
    "SolvedModel",
    "BatchGangSchedulingModel",
    "BatchSolvedModel",
    "ClassStateSpace",
    "heavy_traffic_vacation",
    "response_time_distribution",
    "waiting_time_distribution",
    "optimize_quantum",
    "optimize_quantum_for_slo",
    "optimize_cycle_split",
    "optimize_weights",
    "optimize_priority_order",
    "total_jobs_objective",
    "weighted_response_objective",
    "slo_objective",
    "SLOTarget",
    "parse_slo_target",
]
