"""Tests for the CTMC oracle."""

import numpy as np
import pytest

from repro.errors import ReducibleChainError
from tests.markov.ctmc_oracle import ContinuousTimeMarkovChain, NotAGeneratorError


@pytest.fixture
def birth_death():
    """3-state birth-death chain with known stationary vector."""
    Q = np.array([
        [-1.0, 1.0, 0.0],
        [2.0, -3.0, 1.0],
        [0.0, 2.0, -2.0],
    ])
    return ContinuousTimeMarkovChain(Q)


class TestConstruction:
    def test_validates_generator(self):
        with pytest.raises(NotAGeneratorError):
            ContinuousTimeMarkovChain([[1.0, -1.0], [0.0, 0.0]])

    def test_labels(self):
        c = ContinuousTimeMarkovChain([[-1.0, 1.0], [1.0, -1.0]],
                                      labels=["idle", "busy"])
        assert c.state_index("busy") == 1

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError):
            ContinuousTimeMarkovChain([[0.0]], labels=["a", "b"])

    def test_q_is_readonly(self, birth_death):
        with pytest.raises(ValueError):
            birth_death.Q[0, 0] = -5.0


class TestStructure:
    def test_irreducible(self, birth_death):
        assert birth_death.is_irreducible()

    def test_reducible_detected(self):
        Q = np.array([[-1.0, 1.0, 0.0],
                      [1.0, -1.0, 0.0],
                      [0.0, 1.0, -1.0]])
        c = ContinuousTimeMarkovChain(Q)
        assert not c.is_irreducible()
        classes = c.communicating_classes()
        assert sorted(map(sorted, classes)) == [[0, 1], [2]]

    def test_max_exit_rate(self, birth_death):
        assert birth_death.max_exit_rate == 3.0

    def test_single_state_is_irreducible(self):
        assert ContinuousTimeMarkovChain([[0.0]]).is_irreducible()


class TestStationary:
    def test_detailed_balance_solution(self, birth_death):
        pi = birth_death.stationary_distribution()
        # Birth-death: pi_{i+1}/pi_i = birth/death.
        assert pi[1] / pi[0] == pytest.approx(1.0 / 2.0)
        assert pi[2] / pi[1] == pytest.approx(1.0 / 2.0)

    def test_methods_agree(self, birth_death):
        a = birth_death.stationary_distribution(method="gth")
        b = birth_death.stationary_distribution(method="direct")
        assert a == pytest.approx(b)

    def test_reducible_raises(self):
        Q = np.array([[0.0, 0.0], [1.0, -1.0]])
        with pytest.raises(ReducibleChainError):
            ContinuousTimeMarkovChain(Q).stationary_distribution()

    def test_expected_rewards(self, birth_death):
        pi = birth_death.stationary_distribution()
        r = np.array([0.0, 1.0, 2.0])
        assert birth_death.expected_rewards(r) == pytest.approx(pi @ r)

    def test_rewards_shape_checked(self, birth_death):
        with pytest.raises(ValueError):
            birth_death.expected_rewards([1.0])

