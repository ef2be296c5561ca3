"""Tests for the per-class state-space enumeration."""

import pytest

from repro.core.statespace import ClassStateSpace
from repro.errors import ValidationError
from repro.utils.combinatorics import num_compositions


@pytest.fixture
def space():
    """c=3, exponential arrival/service, Erlang-2 quantum, order-3 vacation."""
    return ClassStateSpace(partitions=3, m_arrival=1, m_service=1,
                           m_quantum=2, m_vacation=3)


class TestBasics:
    def test_cycle_phases(self, space):
        assert space.num_cycle_phases == 5
        assert space.is_quantum_phase(0)
        assert space.is_quantum_phase(1)
        assert not space.is_quantum_phase(2)

    def test_level0_has_only_vacation_phases_under_switch(self, space):
        assert list(space.cycle_phases_at(0)) == [2, 3, 4]
        assert space.level_dim(0) == 3

    def test_level0_idle_policy_keeps_all_phases(self):
        sp = ClassStateSpace(partitions=2, m_arrival=1, m_service=1,
                             m_quantum=2, m_vacation=3, policy="idle")
        assert list(sp.cycle_phases_at(0)) == [0, 1, 2, 3, 4]

    def test_in_service_saturates(self, space):
        assert [space.in_service(i) for i in range(6)] == [0, 1, 2, 3, 3, 3]

    def test_repeating_dim(self, space):
        # Every level from c_p on has the repeating part's dimension.
        assert space.level_dim(space.partitions) == space.level_dim(4) == 5

    def test_boundary_levels_is_c(self, space):
        assert space.boundary_levels == 3

    def test_rejects_bad_policy(self):
        with pytest.raises(ValidationError):
            ClassStateSpace(1, 1, 1, 1, 1, policy="wat")

    def test_rejects_nonpositive_orders(self):
        with pytest.raises(ValidationError):
            ClassStateSpace(1, 0, 1, 1, 1)


class TestMultiPhaseService:
    @pytest.fixture
    def sp(self):
        return ClassStateSpace(partitions=2, m_arrival=2, m_service=3,
                               m_quantum=1, m_vacation=2)

    def test_level_dims_count_compositions(self, sp):
        # dim = mA * C(s + mB - 1, mB - 1) * (M + N).
        assert sp.level_dim(0) == 2 * num_compositions(0, 3) * 2
        assert sp.level_dim(1) == 2 * num_compositions(1, 3) * 3
        assert sp.level_dim(2) == 2 * num_compositions(2, 3) * 3
        assert sp.level_dim(5) == sp.level_dim(2)

    def test_index_roundtrip(self, sp):
        for level in (0, 1, 2, 4):
            seen = set()
            for j, (a, v, k) in enumerate(sp.states(level)):
                idx = sp.index(level, a, v, k)
                assert idx == j
                seen.add(idx)
            assert seen == set(range(sp.level_dim(level)))

    def test_invalid_phase_rejected(self, sp):
        with pytest.raises(ValidationError):
            sp.index(0, 0, (0, 0, 0), 0)   # quantum phase at level 0

    def test_invalid_vector_rejected(self, sp):
        with pytest.raises(ValidationError):
            sp.index(2, 0, (1, 0, 0), 0)   # sums to 1, needs 2

    def test_invalid_arrival_phase_rejected(self, sp):
        with pytest.raises(ValidationError):
            sp.index(1, 5, (1, 0, 0), 0)


class TestLabels:
    def test_labels_align_with_states(self, space):
        labels = space.labels(1)
        assert len(labels) == space.level_dim(1)
        assert labels[0].startswith("i=1")
        assert any("Q0" in s for s in labels)
        assert any("V0" in s for s in labels)
