"""Gang scheduling for multiprogrammed parallel systems.

A full reproduction of *"An Analysis of Gang Scheduling for
Multiprogrammed Parallel Computing Environments"* (Squillante, Wang &
Papaefthymiou, SPAA 1996): the matrix-geometric queueing analysis of a
flexible gang scheduler, the substrates it stands on (phase-type
distributions, Markov-chain machinery, a general QBD solver), and a
discrete-event simulator of the same policy with time-/space-sharing
baselines.

Quick tour
----------
>>> from repro import ClassConfig, SystemConfig, GangSchedulingModel
>>> cfg = SystemConfig(processors=8, classes=(
...     ClassConfig.markovian(2, arrival_rate=0.4, service_rate=1.0,
...                           quantum_mean=2.0, overhead_mean=0.01),
...     ClassConfig.markovian(8, arrival_rate=0.4, service_rate=4.0,
...                           quantum_mean=2.0, overhead_mean=0.01),
... ))
>>> solved = GangSchedulingModel(cfg).solve()
>>> 0 < solved.mean_jobs(0) < 10
True

Subpackages
-----------
``repro.core``
    The paper's model: configuration, per-class QBD construction,
    heavy-traffic vacations, the fixed-point iteration, measures.
``repro.phasetype``
    Phase-type distributions: families, algebra, fitting, sampling.
``repro.markov``
    CTMC/DTMC machinery: GTH, uniformization, absorbing chains.
``repro.qbd``
    Matrix-geometric QBD solver (R/G matrices, drift test, boundary).
``repro.sim``
    Discrete-event simulation: the gang policy, the SP2-style lending
    variant, pure time-/space-sharing baselines, replication driver.
``repro.workloads``
    The paper's figure presets and generic parameter sweeps.
``repro.resilience``
    Production hardening: solver fallback chains with retry/budget
    guards, deterministic fault injection.
``repro.analysis``
    Result tables, shape checks, model-vs-simulation comparison.
"""

from repro.core import (
    ClassConfig,
    GangSchedulingModel,
    SolvedModel,
    SystemConfig,
)
from repro.errors import (
    ConvergenceError,
    ReproError,
    SolverBudgetExceededError,
    UnstableSystemError,
    ValidationError,
)
from repro.phasetype import PhaseType, erlang, exponential, hyperexponential

__version__ = "1.0.0"

__all__ = [
    "ClassConfig",
    "SystemConfig",
    "GangSchedulingModel",
    "SolvedModel",
    "PhaseType",
    "exponential",
    "erlang",
    "hyperexponential",
    "ReproError",
    "ValidationError",
    "UnstableSystemError",
    "ConvergenceError",
    "SolverBudgetExceededError",
    "__version__",
]
