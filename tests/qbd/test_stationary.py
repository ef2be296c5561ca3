"""Tests for the full QBD stationary solution (Theorem 4.2 + eq. 37)."""

import numpy as np
import pytest

from repro.errors import UnstableSystemError, ValidationError
from repro.qbd import QBDProcess, solve_qbd
from tests.markov.ctmc_oracle import solve_stationary_gth
from tests.markov.ctmc_oracle import truncated_generator


def mm1_process(lam=0.5, mu=1.0):
    boundary = (
        (np.array([[-lam]]), np.array([[lam]])),
        (np.array([[mu]]), np.array([[-(lam + mu)]])),
    )
    return QBDProcess(boundary=boundary,
                      A0=[[lam]], A1=[[-(lam + mu)]], A2=[[mu]])


def mmc_process(lam, mu, c):
    """M/M/c as a QBD with boundary levels 0..c."""
    boundary = []
    for i in range(c + 1):
        row = [None] * (c + 1)
        down = min(i, c) * mu
        if i > 0:
            row[i - 1] = np.array([[down]])
        diag = -(lam + down) if i < c else -(lam + c * mu)
        row[i] = np.array([[diag]])
        if i < c:
            row[i + 1] = np.array([[lam]])
        boundary.append(tuple(row))
    return QBDProcess(boundary=tuple(boundary), A0=[[lam]],
                      A1=[[-(lam + c * mu)]], A2=[[c * mu]])


def mmc_mean_jobs(lam, mu, c):
    import math
    rho = lam / (c * mu)
    a = lam / mu
    p0 = 1.0 / (sum(a ** k / math.factorial(k) for k in range(c))
                + a ** c / (math.factorial(c) * (1 - rho)))
    lq = p0 * a ** c * rho / (math.factorial(c) * (1 - rho) ** 2)
    return lq + a


class TestMM1:
    @pytest.mark.parametrize("rho", [0.1, 0.5, 0.9, 0.98])
    def test_geometric_solution(self, rho):
        sol = solve_qbd(mm1_process(rho, 1.0))
        assert sol.level_mass(0) == pytest.approx(1 - rho, abs=1e-9)
        assert sol.mean_level == pytest.approx(rho / (1 - rho), rel=1e-8)
        assert sol.variance_level == pytest.approx(rho / (1 - rho) ** 2,
                                                   rel=1e-7)

    def test_level_vectors_geometric(self):
        rho = 0.6
        sol = solve_qbd(mm1_process(rho, 1.0))
        for i in range(8):
            assert sol.level_mass(i) == pytest.approx((1 - rho) * rho ** i,
                                                      abs=1e-10)

    def test_tail_probability(self):
        rho = 0.7
        sol = solve_qbd(mm1_process(rho, 1.0))
        for k in range(6):
            assert sol.tail_probability(k) == pytest.approx(rho ** (k + 1),
                                                            abs=1e-10)

    def test_total_mass(self):
        sol = solve_qbd(mm1_process())
        assert sol.total_mass_check() == pytest.approx(1.0, abs=1e-10)

    def test_unstable_raises(self):
        with pytest.raises(UnstableSystemError):
            solve_qbd(mm1_process(1.2, 1.0))

    def test_negative_level_rejected(self):
        sol = solve_qbd(mm1_process())
        with pytest.raises(ValidationError):
            sol.level(-1)


class TestMMC:
    @pytest.mark.parametrize("lam,mu,c", [
        (1.5, 1.0, 2), (3.0, 1.0, 4), (5.0, 0.8, 8),
    ])
    def test_matches_erlang_c(self, lam, mu, c):
        sol = solve_qbd(mmc_process(lam, mu, c))
        assert sol.mean_level == pytest.approx(mmc_mean_jobs(lam, mu, c),
                                               rel=1e-9)

    def test_marginal_sums_to_one(self):
        sol = solve_qbd(mmc_process(3.0, 1.0, 4))
        marg = [sol.level_mass(i) for i in range(201)]
        assert sum(marg) == pytest.approx(1.0, abs=1e-8)

    def test_boundary_matches_birth_death(self):
        lam, mu, c = 2.0, 1.0, 3
        sol = solve_qbd(mmc_process(lam, mu, c))
        # Birth-death ratios: pi_{i+1} = pi_i * lam / ((i+1) mu), i < c.
        for i in range(c):
            ratio = sol.level_mass(i + 1) / sol.level_mass(i)
            assert ratio == pytest.approx(lam / ((i + 1) * mu), rel=1e-8)


class TestAgainstTruncatedSolve:
    def test_phase_qbd_matches_direct_truncation(self):
        """Dense 2-phase QBD vs GTH on a 400-level truncation."""
        lam0, lam1, mu, sw = 0.5, 0.2, 1.0, 0.3
        A0 = np.diag([lam0, lam1])
        A2 = np.diag([mu, mu])
        A1 = np.array([[-(lam0 + mu + sw), sw],
                       [sw, -(lam1 + mu + sw)]])
        # Boundary level 0: no service.
        B00 = np.array([[-(lam0 + sw), sw], [sw, -(lam1 + sw)]])
        B01 = A0.copy()
        B10 = A2.copy()
        B11 = A1.copy()
        proc = QBDProcess(boundary=((B00, B01), (B10, B11)),
                          A0=A0, A1=A1, A2=A2)
        sol = solve_qbd(proc)
        Q, tags = truncated_generator(proc, 400)
        pi = solve_stationary_gth(Q)
        # Compare first 10 levels state by state.
        idx = 0
        for (lvl, ph) in tags[:20]:
            assert pi[idx] == pytest.approx(sol.level(lvl)[ph], abs=1e-9)
            idx += 1
        # Mean level agrees.
        mean_direct = sum(lvl * pi[i] for i, (lvl, ph) in enumerate(tags))
        assert sol.mean_level == pytest.approx(mean_direct, rel=1e-6)

    def test_second_moment_against_truncation(self):
        sol = solve_qbd(mm1_process(0.5, 1.0))
        rho = 0.5
        # E[N^2] for M/M/1 geometric: rho(1+rho)/(1-rho)^2.
        assert sol.second_moment_level == pytest.approx(
            rho * (1 + rho) / (1 - rho) ** 2, rel=1e-9)


class TestRepeatingPhaseMarginal:
    def test_sums_to_tail_mass(self):
        sol = solve_qbd(mmc_process(3.0, 1.0, 4))
        agg = sol.repeating_phase_marginal()
        assert agg.sum() == pytest.approx(
            sum(sol.level_mass(i) for i in range(4, 300)), abs=1e-8)
