"""Deterministic fault injection at named sites in the solver stack.

Every recovery path in the resilience layer (fallback chains, retry
budgets, store-backed sweep resume, saturation pinning) must be *provable* in
tests.  Real convergence failures are hard to construct on demand, so
instrumented call sites throughout the library consult this registry
and, when a matching fault is armed, raise a configured exception or
corrupt a result value — deterministically, keyed on call counts.

Instrumented sites
------------------
``"rmatrix.solve"``
    Entry of :func:`repro.qbd.rmatrix.solve_R`; ``key`` is the method
    name (``"logreduction"``, ``"cr"``, ``"substitution"``,
    ``"spectral"``).  Raise-style.
``"rmatrix.result"``
    The solved ``R`` before it is returned; ``key`` is the method
    name.  Corruption-style (e.g. ``corrupt="nan"`` poisons the
    matrix, exercising the fallback chain's result validation).
``"qbd.solve"``
    Entry of :func:`repro.qbd.stationary.solve_qbd` (no key).
``"fixed_point.class_solve"``
    The per-class QBD solve inside the fixed-point driver; ``key`` is
    the class index.  Injecting
    :class:`~repro.errors.UnstableSystemError` here drives the
    optimistic-bootstrap and saturation-pinning paths.
``"sweeps.point"``
    One grid point of :func:`repro.workloads.sweeps.sweep`; ``key`` is
    the swept value.
``"kernels.sparse"``
    The sparse kernel paths: ``key`` is ``"boundary"`` (entry of the
    block-tridiagonal boundary solver) or ``"refine_R"`` (the
    matrix-free Newton refinement).  Raise-style; injecting
    :class:`~repro.errors.ConvergenceError` here proves the dense
    fallbacks — :func:`repro.qbd.boundary.solve_boundary` reverts to
    the dense system and
    :func:`repro.resilience.fallback.resilient_solve_R` downgrades the
    failing attempt's backend to ``"dense"``.

Usage (tests)
-------------
>>> from repro.errors import ConvergenceError
>>> from repro.resilience import faults
>>> with faults.inject("rmatrix.solve", raises=ConvergenceError,
...                    keys=("logreduction",)):
...     pass  # every logreduction solve_R call now raises
>>> faults.active()
False

When nothing is armed the per-call overhead is a truthiness check on
an empty dict.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

from repro.obs import metrics

__all__ = ["FaultSpec", "arm", "disarm", "inject", "active",
           "maybe_fault", "maybe_corrupt", "spec_for"]


@dataclass
class FaultSpec:
    """One armed fault and its firing bookkeeping.

    Attributes
    ----------
    site:
        The instrumented site name this fault is armed at.
    raises:
        Exception instance, exception class, or zero-argument callable
        returning an exception.  ``None`` for corruption-only faults.
    corrupt:
        ``"nan"`` (replace arrays/floats with NaN of the same shape)
        or a callable ``value -> value``.  ``None`` for raise-only
        faults.
    keys:
        When given, only calls whose ``key`` is in this tuple are
        considered (and counted) by this fault.
    calls:
        When given, fire only on these 0-based matching-call indices.
    times:
        When given, fire at most this many times in total.
    seen, fired:
        Matching calls observed / faults actually delivered — exposed
        so tests can assert "the completed point was *not* re-solved".
    """

    site: str
    raises: Any = None
    corrupt: str | Callable[[Any], Any] | None = None
    keys: tuple | None = None
    calls: frozenset[int] | None = None
    times: int | None = None
    seen: int = field(default=0, compare=False)
    fired: int = field(default=0, compare=False)

    def _matches(self, key: Any) -> bool:
        return self.keys is None or key in self.keys

    def _should_fire(self) -> bool:
        # ``seen`` has already been incremented for the current call.
        if self.calls is not None and (self.seen - 1) not in self.calls:
            return False
        if self.times is not None and self.fired >= self.times:
            return False
        return True

    def _exception(self) -> BaseException:
        exc = self.raises
        if isinstance(exc, BaseException):
            return exc
        if isinstance(exc, type) and issubclass(exc, BaseException):
            return exc(f"injected fault at {self.site!r}")
        return exc()

    def _corrupted(self, value: Any) -> Any:
        if callable(self.corrupt):
            return self.corrupt(value)
        if self.corrupt == "nan":
            if isinstance(value, np.ndarray):
                return np.full_like(np.asarray(value, dtype=np.float64),
                                    np.nan)
            return float("nan")
        raise ValueError(f"unknown corruption mode {self.corrupt!r}")


#: Armed faults, one per site.  Empty in normal operation.
_ARMED: dict[str, FaultSpec] = {}


def arm(site: str, *, raises: Any = None,
        corrupt: str | Callable[[Any], Any] | None = None,
        keys: tuple | None = None, calls: frozenset[int] | set[int] | None = None,
        times: int | None = None) -> FaultSpec:
    """Arm a fault at ``site``, replacing any fault already armed there."""
    if raises is None and corrupt is None:
        raise ValueError("a fault must either raise or corrupt")
    spec = FaultSpec(site=site, raises=raises, corrupt=corrupt,
                     keys=tuple(keys) if keys is not None else None,
                     calls=frozenset(calls) if calls is not None else None,
                     times=times)
    _ARMED[site] = spec
    return spec


def disarm(site: str | None = None) -> None:
    """Disarm one site, or every site when ``site`` is ``None``."""
    if site is None:
        _ARMED.clear()
    else:
        _ARMED.pop(site, None)


def active() -> bool:
    """Whether any fault is currently armed."""
    return bool(_ARMED)


def spec_for(site: str) -> FaultSpec | None:
    """The armed :class:`FaultSpec` at ``site``, if any."""
    return _ARMED.get(site)


@contextmanager
def inject(site: str, **kwargs) -> Iterator[FaultSpec]:
    """Context manager: :func:`arm` on entry, restore the site on exit."""
    previous = _ARMED.get(site)
    spec = arm(site, **kwargs)
    try:
        yield spec
    finally:
        if _ARMED.get(site) is spec:
            if previous is None:
                _ARMED.pop(site, None)
            else:
                _ARMED[site] = previous


def maybe_fault(site: str, key: Any = None) -> None:
    """Raise the armed exception for ``site``/``key``, if one should fire."""
    if not _ARMED:
        return
    spec = _ARMED.get(site)
    if spec is None or spec.raises is None or not spec._matches(key):
        return
    spec.seen += 1
    if spec._should_fire():
        spec.fired += 1
        metrics.inc("faults.fired", site=site, kind="raise")
        raise spec._exception()


def maybe_corrupt(site: str, value: Any, key: Any = None) -> Any:
    """Return ``value``, corrupted if a fault at ``site``/``key`` fires."""
    if not _ARMED:
        return value
    spec = _ARMED.get(site)
    if spec is None or spec.corrupt is None or not spec._matches(key):
        return value
    spec.seen += 1
    if spec._should_fire():
        spec.fired += 1
        metrics.inc("faults.fired", site=site, kind="corrupt")
        return spec._corrupted(value)
    return value
