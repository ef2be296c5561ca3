"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch library failures without masking programming errors
(``TypeError`` and friends are still raised directly for misuse of the
API surface itself).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ValidationError",
    "NotAGeneratorError",
    "NotStochasticError",
    "NotAPhaseTypeError",
    "UnstableSystemError",
    "ConvergenceError",
    "SolverBudgetExceededError",
    "ReducibleChainError",
    "SimulationError",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ValidationError(ReproError, ValueError):
    """An input failed structural validation (shape, sign, normalization)."""


class NotAGeneratorError(ValidationError):
    """A matrix claimed to be a CTMC generator is not one.

    A generator (infinitesimal rate) matrix must be square, have
    non-negative off-diagonal entries, and have rows that sum to zero
    (to within tolerance).
    """


class NotStochasticError(ValidationError):
    """A matrix claimed to be a (sub)stochastic matrix is not one."""


class NotAPhaseTypeError(ValidationError):
    """A pair ``(alpha, S)`` is not a valid phase-type representation.

    ``S`` must be a sub-generator: non-negative off-diagonals, strictly
    non-positive diagonal, row sums ``<= 0``, and it must be invertible
    (all phases transient).  ``alpha`` must be a sub-probability vector.
    """


class UnstableSystemError(ReproError):
    """The queueing system is unstable (drift condition violated).

    Raised when the mean drift of the repeating portion of a QBD is
    non-negative, i.e. ``y A0 e >= y A2 e`` (Theorem 4.4 of the paper),
    so no stationary distribution exists.
    """

    def __init__(self, message: str, *, drift: float | None = None):
        super().__init__(message)
        #: Upward minus downward mean drift ``y A0 e - y A2 e``; positive
        #: (or zero) values indicate instability.  ``None`` if unknown.
        self.drift = drift


class ConvergenceError(ReproError):
    """An iterative solver failed to converge within its iteration budget."""

    def __init__(self, message: str, *, iterations: int | None = None,
                 residual: float | None = None):
        super().__init__(message)
        #: Number of iterations performed before giving up.
        self.iterations = iterations
        #: Final residual / change measure when the budget ran out.
        self.residual = residual


class SolverBudgetExceededError(ConvergenceError):
    """A resilient solve ran out of its iteration or wall-clock budget.

    Raised by :mod:`repro.resilience.fallback` when the combined
    retry/fallback attempts exhaust the caller's
    :class:`~repro.resilience.fallback.RetryPolicy` budgets before any
    method produces an acceptable solution.  Inherits the
    ``iterations``/``residual`` diagnostics of
    :class:`ConvergenceError` and adds the budget bookkeeping.
    """

    def __init__(self, message: str, *, iterations: int | None = None,
                 residual: float | None = None,
                 elapsed: float | None = None,
                 budget: float | None = None):
        super().__init__(message, iterations=iterations, residual=residual)
        #: Wall-clock seconds spent before giving up (``None`` if the
        #: iteration budget, not the clock, was the binding constraint).
        self.elapsed = elapsed
        #: The budget that was exceeded (seconds or iterations,
        #: matching whichever constraint fired).
        self.budget = budget


class ReducibleChainError(ReproError):
    """A Markov chain expected to be irreducible is not.

    The stationary distribution of a reducible chain is not unique; the
    caller must restrict to a recurrent class first.
    """


class SimulationError(ReproError):
    """The discrete-event simulator reached an inconsistent state."""
