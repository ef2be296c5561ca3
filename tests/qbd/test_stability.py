"""Tests for the Theorem 4.4 drift test."""

import numpy as np
import pytest

from repro.errors import ReducibleChainError
from repro.qbd.stability import drift, is_stable


def mm1_blocks(lam, mu):
    return (np.array([[lam]]), np.array([[-(lam + mu)]]), np.array([[mu]]))


class TestDriftScalar:
    def test_stable(self):
        report = drift(*mm1_blocks(0.5, 1.0))
        assert report.stable
        assert report.up == pytest.approx(0.5)
        assert report.down == pytest.approx(1.0)
        assert report.traffic_intensity == pytest.approx(0.5)

    def test_unstable(self):
        assert not is_stable(*mm1_blocks(1.2, 1.0))

    def test_critical_is_unstable(self):
        # rho = 1 exactly: null recurrent, not positive recurrent.
        report = drift(*mm1_blocks(1.0, 1.0))
        assert not report.stable
        assert report.drift == pytest.approx(0.0)


class TestDriftPhases:
    def test_weighted_by_phase_stationary(self):
        # Phase 0 arrives fast, phase 1 slow; switching 50/50.
        A0 = np.diag([1.5, 0.1])
        A2 = np.diag([1.0, 1.0])
        sw = 1.0
        A1 = np.array([[-(1.5 + 1.0 + sw), sw],
                       [sw, -(0.1 + 1.0 + sw)]])
        report = drift(A0, A1, A2)
        assert report.phase_stationary == pytest.approx([0.5, 0.5])
        assert report.up == pytest.approx(0.8)
        assert report.stable

    def test_drift_equals_sp_R_condition(self):
        # Stability via drift must agree with sp(R) < 1.
        from repro.qbd.rmatrix import solve_R
        A0 = np.diag([0.7, 0.3])
        A2 = np.diag([1.0, 0.8])
        sw = 0.4
        A1 = np.array([[-(0.7 + 1.0 + sw), sw],
                       [sw, -(0.3 + 0.8 + sw)]])
        report = drift(A0, A1, A2)
        R = solve_R(A0, A1, A2)
        assert report.stable == (np.abs(np.linalg.eigvals(R)).max() < 1.0)

    def test_reducible_phase_process_raises(self):
        # Two phases that never communicate.
        A0 = np.diag([0.5, 0.5])
        A2 = np.diag([1.0, 1.0])
        A1 = np.diag([-1.5, -1.5])
        with pytest.raises(ReducibleChainError):
            drift(A0, A1, A2)
