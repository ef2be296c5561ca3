"""Resilience layer: fallback chains, retry budgets, fault injection.

Production sweeps solve thousands of models; this package makes partial
failure a first-class, *recoverable* outcome instead of a fatal one:

:mod:`~repro.resilience.fallback`
    Multi-method ``R``-matrix solving with per-method retries
    (tightened tolerances, mild regularization), iteration and
    wall-clock budgets, and a structured :class:`SolveReport` of every
    attempt.
:mod:`~repro.resilience.faults`
    Deterministic fault injection at named sites throughout the solver
    stack, so every recovery path is provable in tests.
"""

from repro.resilience.fallback import (
    AttemptRecord,
    ResiliencePolicy,
    RetryPolicy,
    SolveReport,
    default_chain,
    resilient_solve_R,
)
from repro.resilience.faults import (
    FaultSpec,
    arm,
    disarm,
    inject,
    maybe_fault,
    maybe_corrupt,
)

__all__ = [
    "AttemptRecord",
    "ResiliencePolicy",
    "RetryPolicy",
    "SolveReport",
    "default_chain",
    "resilient_solve_R",
    "FaultSpec",
    "arm",
    "disarm",
    "inject",
    "maybe_fault",
    "maybe_corrupt",
]
