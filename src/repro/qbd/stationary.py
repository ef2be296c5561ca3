"""Stationary distribution of a QBD and its closed-form level moments.

:func:`solve_qbd` runs the full pipeline — stability test, ``R``
matrix, boundary solve — and returns a
:class:`QBDStationaryDistribution` exposing per-level vectors
``pi_i`` (matrix-geometric beyond the boundary), the level marginal,
tails, and the closed-form moments behind eq. (37) of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import UnstableSystemError, ValidationError
from repro.qbd.boundary import solve_boundary
from repro.qbd.stability import DriftReport, drift
from repro.qbd.structure import QBDProcess
from repro.resilience.fallback import SolveReport, resilient_solve_R
from repro.resilience.faults import maybe_fault

__all__ = ["solve_qbd", "QBDStationaryDistribution"]


@dataclass(frozen=True)
class QBDStationaryDistribution:
    """Stationary distribution ``(pi_0, ..., pi_b, pi_b R, pi_b R^2, ...)``.

    Attributes
    ----------
    boundary_pi:
        Tuple of stationary vectors for boundary levels ``0..b``.
    R:
        Rate matrix of the repeating portion.
    tail:
        ``(I - R)^{-1} e``, the boundary solve's normalization vector:
        ``pi_b R^k tail`` is the mass of the levels beyond ``b + k - 1``.
    drift_report:
        The Theorem 4.4 stability diagnostics.
    solve_report:
        Attempt history of the resilient ``R`` solve.
    """

    boundary_pi: tuple[np.ndarray, ...]
    R: np.ndarray
    tail: np.ndarray
    drift_report: DriftReport
    solve_report: SolveReport

    @property
    def boundary_levels(self) -> int:
        return len(self.boundary_pi) - 1

    @cached_property
    def _tail_inv(self) -> np.ndarray:
        d = self.R.shape[0]
        return np.linalg.inv(np.eye(d) - self.R)

    def level(self, i: int) -> np.ndarray:
        """Stationary vector of level ``i`` (matrix-geometric for ``i > b``)."""
        if i < 0:
            raise ValidationError(f"level must be non-negative, got {i}")
        b = self.boundary_levels
        if i <= b:
            return self.boundary_pi[i]
        return self.boundary_pi[b] @ np.linalg.matrix_power(self.R, i - b)

    def level_mass(self, i: int) -> float:
        """Total probability of level ``i``: ``pi_i e``."""
        return float(self.level(i).sum())

    def tail_probability(self, k: int) -> float:
        """``P(level > k)`` in closed form.

        For ``k >= b``: ``pi_b R^{k-b+1} (I - R)^{-1} e``.
        """
        b = self.boundary_levels
        if k < b:
            return max(0.0, 1.0 - sum(self.level_mass(i) for i in range(k + 1)))
        pib = self.boundary_pi[b]
        Rp = np.linalg.matrix_power(self.R, k - b + 1)
        return float(pib @ Rp @ self._tail_inv @ np.ones(self.R.shape[0]))

    @cached_property
    def mean_level(self) -> float:
        """``E[level] = sum_i i pi_i e`` in closed form (eq. 37).

        ``sum_{i<b} i pi_i e + b pi_b (I-R)^{-1} e
        + pi_b (I-R)^{-2} R e``.
        """
        b = self.boundary_levels
        pib = self.boundary_pi[b]
        e = np.ones(self.R.shape[0])
        total = sum(i * self.level_mass(i) for i in range(b))
        total += b * float(pib @ self._tail_inv @ e)
        total += float(pib @ self._tail_inv @ self._tail_inv @ self.R @ e)
        return total

    @cached_property
    def second_moment_level(self) -> float:
        """``E[level^2]`` in closed form.

        Uses ``sum_n (b+n)^2 R^n = b^2 T0 + 2 b T1 + T2`` with
        ``T0=(I-R)^{-1}``, ``T1=R(I-R)^{-2}``,
        ``T2=R(I+R)(I-R)^{-3}``.
        """
        b = self.boundary_levels
        pib = self.boundary_pi[b]
        d = self.R.shape[0]
        e = np.ones(d)
        T0 = self._tail_inv
        T1 = self.R @ T0 @ T0
        T2 = self.R @ (np.eye(d) + self.R) @ T0 @ T0 @ T0
        total = sum(i * i * self.level_mass(i) for i in range(b))
        total += float(pib @ (b * b * T0 + 2 * b * T1 + T2) @ e)
        return total

    @property
    def variance_level(self) -> float:
        """``Var[level]``."""
        return max(0.0, self.second_moment_level - self.mean_level ** 2)

    def repeating_phase_marginal(self) -> np.ndarray:
        """Aggregate phase distribution over levels ``>= b``: ``pi_b (I-R)^{-1}``.

        Not normalized — its sum is ``P(level >= b)``.
        """
        return self.boundary_pi[self.boundary_levels] @ self._tail_inv

    def total_mass_check(self) -> float:
        """Total probability mass (should be 1.0); exposed for tests."""
        b = self.boundary_levels
        mass = sum(float(pi.sum()) for pi in self.boundary_pi[:b])
        mass += float(self.repeating_phase_marginal().sum())
        return mass


def solve_qbd(process: QBDProcess, *, method: str = "logreduction",
              tol: float = 1e-12,
              R0: np.ndarray | None = None,
              backend: str | None = None,
              ) -> QBDStationaryDistribution:
    """Full matrix-geometric solution of a QBD.

    Parameters
    ----------
    process:
        Validated QBD description.
    method:
        Primary ``R``-matrix algorithm of the resilience chain (see
        :func:`repro.resilience.fallback.resilient_solve_R`): when it
        fails, the remaining algorithms are tried in turn and the
        attempt history lands on the result's ``solve_report``.
    tol:
        Convergence tolerance for the ``R`` iteration.
    R0:
        Optional warm-start iterate for the ``R`` solve (see
        :func:`repro.qbd.rmatrix.solve_R`).
    backend:
        Kernel selection (``"auto"`` / ``"dense"`` / ``"sparse"``),
        threaded to the ``R`` refinement and the boundary solve; see
        :mod:`repro.kernels`.

    Raises
    ------
    UnstableSystemError
        If the repeating portion has non-negative mean drift (checked
        before any ``R`` iteration could diverge).
    ConvergenceError
        If every method of the ``R`` solve's chain failed.
    SolverBudgetExceededError
        If the ``R`` solve's iteration budget ran out before any method
        succeeded.
    """
    maybe_fault("qbd.solve")
    report = drift(process.A0, process.A1, process.A2)
    if not report.stable:
        raise UnstableSystemError(
            f"QBD is not positive recurrent: mean up-rate {report.up:.6g} >= "
            f"mean down-rate {report.down:.6g} (rho={report.traffic_intensity:.4g})",
            drift=report.drift,
        )
    R, solve_report = resilient_solve_R(
        process.A0, process.A1, process.A2, method=method, tol=tol,
        R0=R0, backend=backend)
    pi, tail = solve_boundary(process, R, backend=backend)
    return QBDStationaryDistribution(boundary_pi=tuple(pi), R=R, tail=tail,
                                     drift_report=report,
                                     solve_report=solve_report)
