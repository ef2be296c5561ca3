"""Resilience layer: the fallback chain, solve budgets, fault injection.

Production sweeps solve thousands of models; this package makes partial
failure a first-class, *recoverable* outcome instead of a fatal one:

:mod:`~repro.resilience.fallback`
    Multi-method ``R``-matrix solving with per-method retries
    (tightened tolerances, mild regularization), the one acceptance
    test of a candidate ``R`` (:func:`accept_R`, shared with the
    stacked solve stage), an iteration budget and an optional
    wall-clock budget, and a structured :class:`SolveReport` of every
    attempt.
:mod:`~repro.resilience.faults`
    Deterministic fault injection at named sites throughout the solver
    stack, so every recovery path is provable in tests.
"""

from repro.resilience.fallback import (
    AttemptRecord,
    SolveReport,
    accept_R,
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
    "SolveReport",
    "accept_R",
    "default_chain",
    "resilient_solve_R",
    "FaultSpec",
    "arm",
    "disarm",
    "inject",
    "maybe_fault",
    "maybe_corrupt",
]
