"""Tests for the solver fallback chain, retries, and budgets."""

import numpy as np
import pytest

from repro.errors import (
    ConvergenceError,
    SolverBudgetExceededError,
    ValidationError,
)
from repro.qbd import QBDProcess, solve_qbd
from repro.qbd.rmatrix import METHODS
from repro.resilience import fallback, faults
from repro.resilience.fallback import default_chain, resilient_solve_R


def phase_blocks():
    lam0, lam1, mu, sw = 0.8, 0.2, 1.0, 0.3
    A0 = np.diag([lam0, lam1])
    A2 = np.diag([mu, mu])
    A1 = np.array([
        [-(lam0 + mu + sw), sw],
        [sw, -(lam1 + mu + sw)],
    ])
    return A0, A1, A2


def phase_process():
    A0, A1, A2 = phase_blocks()
    # Level 0 reflects the down-rates back onto the diagonal.
    return QBDProcess(boundary=((A1 + A2, A0), (A2, A1)),
                      A0=A0, A1=A1, A2=A2)


class TestDefaultChain:
    def test_primary_first_then_rest(self):
        chain = default_chain("substitution")
        assert chain[0] == "substitution"
        assert set(chain) == set(METHODS)
        assert len(chain) == len(METHODS)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError, match="unknown"):
            default_chain("newton")


class TestHappyPath:
    def test_primary_succeeds_no_fallback(self):
        A0, A1, A2 = phase_blocks()
        R, report = resilient_solve_R(A0, A1, A2)
        assert report.method == "logreduction"
        assert report.fallbacks == 0
        assert len(report.attempts) == 1
        assert report.attempts[0].outcome == "ok"
        assert np.max(np.abs(R @ R @ A2 + R @ A1 + A0)) < 1e-10

    def test_report_describe_readable(self):
        A0, A1, A2 = phase_blocks()
        _, report = resilient_solve_R(A0, A1, A2)
        text = report.describe()
        assert "logreduction" in text and "ok" in text


class TestFallback:
    def test_primary_error_falls_back(self):
        A0, A1, A2 = phase_blocks()
        R_ref, _ = resilient_solve_R(A0, A1, A2)
        with faults.inject("rmatrix.solve", raises=ConvergenceError,
                           keys=("logreduction",)):
            R, report = resilient_solve_R(A0, A1, A2)
        assert report.method == "cr"
        assert report.fallbacks > 0
        assert [a.outcome for a in report.attempts[:-1]] \
            == ["error"] * (len(report.attempts) - 1)
        assert R == pytest.approx(R_ref, abs=1e-8)

    def test_nan_result_detected_and_skipped(self):
        A0, A1, A2 = phase_blocks()
        R_ref, _ = resilient_solve_R(A0, A1, A2)
        with faults.inject("rmatrix.result", corrupt="nan",
                           keys=("logreduction",)):
            R, report = resilient_solve_R(A0, A1, A2)
        assert report.method == "cr"
        invalid = [a for a in report.attempts if a.outcome == "invalid"]
        assert invalid and "non-finite" in invalid[0].error
        assert R == pytest.approx(R_ref, abs=1e-8)

    def test_retry_records_adjusted_tolerances(self):
        A0, A1, A2 = phase_blocks()
        with faults.inject("rmatrix.solve", raises=ConvergenceError,
                           keys=("logreduction",)):
            _, report = resilient_solve_R(A0, A1, A2)
        lr = [a for a in report.attempts if a.method == "logreduction"]
        assert len(lr) == fallback.ATTEMPTS_PER_METHOD
        assert lr[1].tol > lr[0].tol             # relaxed after failure
        assert lr[1].regularization > 0.0

    def test_every_method_failing_raises_with_report(self):
        A0, A1, A2 = phase_blocks()
        with faults.inject("rmatrix.solve", raises=ConvergenceError):
            with pytest.raises(ConvergenceError,
                               match="every R-matrix method") as info:
                resilient_solve_R(A0, A1, A2)
        report = info.value.report
        assert {a.method for a in report.attempts} == set(METHODS)
        assert not report.succeeded


class TestBudgets:
    def test_wall_clock_budget_exceeded(self):
        A0, A1, A2 = phase_blocks()
        with pytest.raises(SolverBudgetExceededError) as info:
            resilient_solve_R(A0, A1, A2, budget=0.0)
        assert info.value.budget == 0.0
        assert info.value.elapsed is not None
        assert info.value.report.attempts == []

    def test_iteration_budget_exceeded(self, monkeypatch):
        A0, A1, A2 = phase_blocks()
        monkeypatch.setattr(fallback, "MAX_TOTAL_ITERATIONS", 1500)
        injected = ConvergenceError("stuck", iterations=1000, residual=0.5)
        with faults.inject("rmatrix.solve", raises=injected):
            with pytest.raises(SolverBudgetExceededError) as info:
                resilient_solve_R(A0, A1, A2)
        assert info.value.iterations >= 1500
        assert info.value.residual == 0.5
        assert len(info.value.report.attempts) == 2

    def test_budget_error_is_a_convergence_error(self):
        # Callers catching ConvergenceError keep working.
        assert issubclass(SolverBudgetExceededError, ConvergenceError)

    def test_wall_clock_budget_binds_mid_attempt(self):
        """Regression: a single runaway attempt must not exceed the budget.

        The budget used to be checked only *between* attempts, so one
        substitution attempt on a critically-drifted QBD (delta shrinks
        like 1/n, never reaching tol) would burn through its full
        100k-iteration cap — tens of seconds at this block size —
        before the clock was consulted.  The deadline is now threaded
        into the iteration loop itself.
        """
        import time

        # Zero-drift diagonal blocks: substitution approaches the
        # double root r=1 sublinearly and never meets tol=1e-12.
        d = 128
        A0 = np.eye(d)
        A2 = np.eye(d)
        A1 = -2.0 * np.eye(d)
        t0 = time.monotonic()
        with pytest.raises(SolverBudgetExceededError) as info:
            resilient_solve_R(A0, A1, A2, method="substitution", budget=0.2)
        elapsed = time.monotonic() - t0
        # Generous CI slack; the pre-fix behavior is 20s+.
        assert elapsed < 3.0
        assert info.value.budget == 0.2
        [attempt] = info.value.report.attempts
        assert attempt.method == "substitution"
        assert attempt.outcome == "error"
        assert "deadline" in attempt.error


class TestSolveQBDIntegration:
    def test_faulted_primary_still_solves_correctly(self):
        """Acceptance: forced primary failure -> fallback agrees to 1e-8."""
        process = phase_process()
        clean = solve_qbd(process)
        with faults.inject("rmatrix.solve", raises=ConvergenceError,
                           keys=("logreduction",)):
            faulted = solve_qbd(process)
        assert faulted.solve_report.method == "cr"
        assert faulted.solve_report.fallbacks > 0
        assert faulted.mean_level == pytest.approx(clean.mean_level,
                                                   abs=1e-8)
        assert [faulted.level_mass(i) for i in range(21)] == pytest.approx(
            [clean.level_mass(i) for i in range(21)], abs=1e-8)

    def test_fallback_through_to_spectral(self):
        process = phase_process()
        clean = solve_qbd(process)
        with faults.inject("rmatrix.solve", raises=ConvergenceError,
                           keys=("logreduction", "cr", "substitution")):
            faulted = solve_qbd(process)
        assert faulted.solve_report.method == "spectral"
        assert faulted.mean_level == pytest.approx(clean.mean_level,
                                                   abs=1e-8)

    def test_solve_report_present_by_default(self):
        sol = solve_qbd(phase_process())
        assert sol.solve_report is not None
        assert sol.solve_report.method == "logreduction"
