"""Tests for QBDProcess structural validation."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.qbd import QBDProcess
from tests.markov.ctmc_oracle import truncated_generator


def mm1_process(lam=0.5, mu=1.0):
    boundary = (
        (np.array([[-lam]]), np.array([[lam]])),
        (np.array([[mu]]), np.array([[-(lam + mu)]])),
    )
    return QBDProcess(boundary=boundary,
                      A0=[[lam]], A1=[[-(lam + mu)]], A2=[[mu]])


class TestValidation:
    def test_valid_mm1(self):
        proc = mm1_process()
        assert proc.boundary_levels == 1
        assert proc.phase_dim == 1

    def test_rejects_mismatched_repeating_shapes(self):
        with pytest.raises(ValidationError, match="match A1"):
            QBDProcess(boundary=((np.array([[-0.5]]), np.array([[0.5]])),
                                 (np.array([[1.0]]), np.array([[-1.5]]))),
                       A0=[[0.5, 0.0]], A1=[[-1.5]], A2=[[1.0]])

    def test_rejects_negative_A0(self):
        with pytest.raises(ValidationError, match="non-negative"):
            QBDProcess(boundary=((np.array([[0.5]]), np.array([[-0.5]])),
                                 (np.array([[1.0]]), np.array([[-1.5]]))),
                       A0=[[-0.5]], A1=[[-0.5]], A2=[[1.0]])

    def test_rejects_bad_row_sums(self):
        with pytest.raises(ValidationError, match="sums to"):
            QBDProcess(boundary=((np.array([[-1.0]]), np.array([[0.5]])),
                                 (np.array([[1.0]]), np.array([[-1.5]]))),
                       A0=[[0.5]], A1=[[-1.5]], A2=[[1.0]])

    def test_rejects_wrong_last_level_dim(self):
        boundary = (
            (np.array([[-0.5, 0.0], [0.0, -0.5]]),
             np.array([[0.5], [0.5]])),
            (np.array([[1.0, 0.0]]), np.array([[-1.5]])),
        )
        # Repeating blocks 2x2 but last boundary level is 1-dimensional.
        with pytest.raises(ValidationError, match="phase dim"):
            QBDProcess(boundary=boundary,
                       A0=np.eye(2) * 0.5,
                       A1=np.array([[-1.5, 0.0], [0.0, -1.5]]),
                       A2=np.eye(2))

    def test_rejects_nonadjacent_blocks(self):
        lam, mu = 0.5, 1.0
        boundary = (
            (np.array([[-lam]]), np.array([[lam]]), np.array([[0.1]])),
            (np.array([[mu]]), np.array([[-(lam + mu)]]), np.array([[lam]])),
            (None, np.array([[mu]]), np.array([[-(lam + mu)]])),
        )
        with pytest.raises(ValidationError, match="non-adjacent"):
            QBDProcess(boundary=boundary, A0=[[lam]],
                       A1=[[-(lam + mu)]], A2=[[mu]])

    def test_missing_diagonal_block(self):
        with pytest.raises(ValidationError, match="diagonal"):
            QBDProcess(boundary=((None, np.array([[0.5]])),
                                 (np.array([[1.0]]), np.array([[-1.5]]))),
                       A0=[[0.5]], A1=[[-1.5]], A2=[[1.0]])


class TestAccessors:
    def test_block_lookup(self):
        proc = mm1_process(0.5, 1.0)
        assert proc.block(0, 1) == pytest.approx(np.array([[0.5]]))
        assert proc.block(5, 6) == pytest.approx(np.array([[0.5]]))   # A0
        assert proc.block(6, 5) == pytest.approx(np.array([[1.0]]))   # A2
        assert proc.block(3, 3) == pytest.approx(np.array([[-1.5]]))  # A1
        assert proc.block(0, 2) is None
        assert proc.block(-1, 0) is None

    def test_boundary_dims(self):
        assert mm1_process().boundary_dims() == [1, 1]


class TestTruncatedGenerator:
    def test_rows_sum_to_zero(self):
        Q, tags = truncated_generator(mm1_process(), 10)
        assert np.allclose(Q.sum(axis=1), 0.0)
        assert len(tags) == 10

    def test_tags_are_level_phase(self):
        _, tags = truncated_generator(mm1_process(), 4)
        assert tags == [(0, 0), (1, 0), (2, 0), (3, 0)]

    def test_requires_repeating_level(self):
        with pytest.raises(ValidationError):
            truncated_generator(mm1_process(), 2)

    def test_truncated_stationary_approximates_mm1(self):
        from tests.markov.ctmc_oracle import solve_stationary_gth
        lam, mu = 0.5, 1.0
        Q, _ = truncated_generator(mm1_process(lam, mu), 60)
        pi = solve_stationary_gth(Q)
        rho = lam / mu
        expect = (1 - rho) * rho ** np.arange(60)
        assert pi == pytest.approx(expect, abs=1e-9)
