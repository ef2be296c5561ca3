"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.errors import NotAPhaseTypeError, ValidationError
from repro.utils.validation import (
    as_float_array,
    check_subgenerator,
    check_subprobability_vector,
)
from tests.markov.ctmc_oracle import NotAGeneratorError, check_generator


class TestAsFloatArray:
    def test_coerces_lists(self):
        out = as_float_array([[1, 2], [3, 4]], ndim=2)
        assert out.dtype == np.float64
        assert out.shape == (2, 2)

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValidationError, match="2-dimensional"):
            as_float_array([1.0, 2.0], ndim=2)

    def test_rejects_nan(self):
        with pytest.raises(ValidationError, match="non-finite"):
            as_float_array([np.nan])

    def test_rejects_inf(self):
        with pytest.raises(ValidationError, match="non-finite"):
            as_float_array([[np.inf]], ndim=2)


class TestProbabilityVector:
    def test_subprobability_allows_deficit(self):
        v = check_subprobability_vector([0.2, 0.3])
        assert v.sum() == pytest.approx(0.5)

    def test_subprobability_rejects_excess(self):
        with pytest.raises(ValidationError, match="<= 1"):
            check_subprobability_vector([0.9, 0.9])


class TestGenerator:
    def test_valid(self):
        Q = check_generator([[-1.0, 1.0], [2.0, -2.0]])
        assert Q[0, 1] == 1.0

    def test_rejects_nonzero_rows(self):
        with pytest.raises(NotAGeneratorError, match="sums to"):
            check_generator([[-1.0, 0.5], [2.0, -2.0]])

    def test_rejects_negative_offdiag(self):
        with pytest.raises(NotAGeneratorError, match="off-diagonal"):
            check_generator([[1.0, -1.0], [2.0, -2.0]])

    def test_scaled_tolerance_accepts_fast_chains(self):
        # A stiff generator with O(1e-7) rounding noise on a 1e6 rate.
        Q = np.array([[-1e6, 1e6], [5e5, -5e5 + 1e-7]])
        assert np.array_equal(check_generator(Q), Q)

class TestSubgenerator:
    def test_valid(self):
        S = check_subgenerator([[-2.0, 1.0], [0.0, -3.0]])
        assert S[1, 1] == -3.0

    def test_rejects_positive_row_sum(self):
        with pytest.raises(NotAPhaseTypeError):
            check_subgenerator([[-1.0, 2.0], [0.0, -1.0]])

    def test_rejects_singular(self):
        # Phase 2 never exits: recurrent, so absorption is not certain.
        with pytest.raises(NotAPhaseTypeError, match="singular"):
            check_subgenerator([[-1.0, 1.0], [0.0, 0.0]])

    def test_rejects_positive_diagonal(self):
        with pytest.raises(NotAPhaseTypeError):
            check_subgenerator([[1.0]], require_invertible=False)

    def test_allows_singular_when_not_required(self):
        S = check_subgenerator([[-1.0, 1.0], [1.0, -1.0]],
                               require_invertible=False)
        assert S.shape == (2, 2)
