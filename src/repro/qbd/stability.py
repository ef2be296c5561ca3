"""Stability (positive recurrence) of the repeating portion of a QBD.

Theorem 4.4 of the paper: when the generator ``A = A0 + A1 + A2`` of
the phase process is irreducible with stationary vector ``y``
(``y A = 0``, ``y e = 1``), the QBD is positive recurrent iff the mean
upward drift is smaller than the mean downward drift::

    y A0 e < y A2 e .

This is equivalent to ``sp(R) < 1`` (Neuts 1981).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ReducibleChainError
from repro.kernels.batched import batched_drift

__all__ = ["drift", "is_stable", "DriftReport"]


@dataclass(frozen=True)
class DriftReport:
    """Outcome of the mean-drift stability test.

    Attributes
    ----------
    up:
        Mean upward rate ``y A0 e``.
    down:
        Mean downward rate ``y A2 e``.
    phase_stationary:
        Stationary vector ``y`` of ``A0 + A1 + A2``.
    """

    up: float
    down: float
    phase_stationary: np.ndarray

    @property
    def drift(self) -> float:
        """Net drift ``up - down``; negative means stable."""
        return self.up - self.down

    @property
    def stable(self) -> bool:
        return self.drift < 0.0

    @property
    def traffic_intensity(self) -> float:
        """``rho = up / down``; stable iff ``< 1``."""
        return self.up / self.down if self.down > 0 else float("inf")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        verdict = "stable" if self.stable else "UNSTABLE"
        return (f"DriftReport(up={self.up:.6g}, down={self.down:.6g}, "
                f"rho={self.traffic_intensity:.6g}, {verdict})")


def drift(A0: np.ndarray, A1: np.ndarray, A2: np.ndarray) -> DriftReport:
    """Run the Theorem 4.4 drift test on the repeating blocks.

    The test is :func:`repro.kernels.batched.batched_drift` on a stack
    of one, so a single QBD gets the bits of a slice of the stacked
    solve stage.  Raises :class:`~repro.errors.ReducibleChainError`
    when the phase generator ``A0 + A1 + A2`` is reducible (the paper
    requires irreducible PH representations precisely so this cannot
    happen).
    """
    up, down, y, ok = batched_drift(
        *(np.asarray(A, dtype=np.float64)[None] for A in (A0, A1, A2)))
    if not ok[0]:
        raise ReducibleChainError(
            "phase process A0+A1+A2 is reducible; use irreducible PH "
            "representations (PhaseType.trimmed() can help)")
    return DriftReport(up=float(up[0]), down=float(down[0]),
                       phase_stationary=y[0])


def is_stable(A0: np.ndarray, A1: np.ndarray, A2: np.ndarray) -> bool:
    """Whether the QBD with these repeating blocks is positive recurrent."""
    return drift(A0, A1, A2).stable
