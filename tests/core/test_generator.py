"""Tests for the per-class QBD generator construction."""

import numpy as np
import pytest

from repro.core.generator import build_class_qbd
from repro.errors import ValidationError
from repro.phasetype import PhaseType, erlang, exponential, hyperexponential
from tests.markov.ctmc_oracle import truncated_generator


def simple_chain(c=2, policy="switch", **kw):
    args = dict(
        arrival=exponential(0.5),
        service=exponential(1.0),
        quantum=exponential(mean=2.0),
        vacation=exponential(mean=1.0),
    )
    args.update(kw)
    return build_class_qbd(c, args["arrival"], args["service"],
                           args["quantum"], args["vacation"], policy=policy)


class TestStructuralInvariants:
    def test_valid_qbd_produced(self):
        proc, space = simple_chain()
        # Validation in QBDProcess already checks row sums; spot-check
        # block shapes here.
        assert proc.phase_dim == space.level_dim(space.partitions)
        assert proc.boundary_levels == 2

    def test_erlang_quantum_and_vacation(self):
        proc, space = simple_chain(
            quantum=erlang(3, mean=2.0),
            vacation=erlang(2, mean=1.0),
        )
        assert space.m_quantum == 3 and space.m_vacation == 2
        assert proc.phase_dim == 5

    def test_multiphase_service(self):
        proc, space = simple_chain(c=2, service=erlang(2, mean=1.0))
        # Level 2 phases: 1 arrival x C(3,1)=3 vectors x 2 cycle = 6.
        assert proc.phase_dim == 6

    def test_phase_arrivals(self):
        proc, space = simple_chain(
            arrival=hyperexponential([0.5, 0.5], [0.3, 1.0]))
        assert space.m_arrival == 2

    def test_atom_rejected(self):
        with pytest.raises(ValidationError, match="atom"):
            simple_chain(vacation=PhaseType([0.5], [[-1.0]]))

    def test_labels_attached_on_request(self):
        proc, space = build_class_qbd(
            2, exponential(0.5), exponential(1.0),
            exponential(mean=1.0), exponential(mean=1.0), with_labels=True)
        assert proc.level_labels is not None
        assert len(proc.level_labels) == 4  # levels 0..2 plus repeating


class TestTransitionSemantics:
    def test_no_service_during_vacation(self):
        """Down-rates out of vacation states must be zero."""
        proc, space = simple_chain(c=1)
        A2 = np.asarray(proc.A2)
        for j, (a, v, k) in enumerate(space.states(2)):
            if not space.is_quantum_phase(k):
                assert A2[j].sum() == 0.0

    def test_arrivals_always_active(self):
        proc, space = simple_chain(c=1)
        A0 = np.asarray(proc.A0)
        lam = 0.5
        for j, (a, v, k) in enumerate(space.states(2)):
            assert A0[j].sum() == pytest.approx(lam)

    def test_switch_on_empty_targets_vacation(self):
        """Level 1 -> 0 transitions must land in vacation phases only."""
        proc, space = simple_chain(c=2)
        down = proc.boundary[1][0]
        # Level 0 states are all vacation-phase states under "switch".
        assert down.shape == (space.level_dim(1), space.level_dim(0))
        # Completion happens only from quantum states.
        for j, (a, v, k) in enumerate(space.states(1)):
            if space.is_quantum_phase(k):
                assert down[j].sum() == pytest.approx(1.0)  # mu = 1, one job
            else:
                assert down[j].sum() == 0.0

    def test_idle_policy_keeps_quantum_at_level0(self):
        proc, space = simple_chain(c=2, policy="idle")
        assert space.level_dim(0) == space.num_cycle_phases
        down = proc.boundary[1][0]
        for j, (a, v, k) in enumerate(space.states(1)):
            if space.is_quantum_phase(k):
                # Completion keeps the quantum running: lands on (a, 0, k).
                y = space.index(0, a, (0,), k)
                assert down[j, y] == pytest.approx(1.0)

    def test_refill_uses_service_init(self):
        """Above c, a completion pulls the next job in with alpha_B."""
        service = erlang(2, mean=1.0)
        proc, space = simple_chain(c=1, service=service)
        A2 = np.asarray(proc.A2)
        # From (a=0, v=(0,1), quantum): stage-2 completion rate 2.0 pulls
        # a queued job starting in stage 1 -> v=(1,0).
        x = space.index(2, 0, (0, 1), 0)
        y = space.index(1, 0, (1, 0), 0)
        assert A2[x, y] == pytest.approx(2.0)

    def test_quantum_expiry_enters_vacation_start(self):
        vac = erlang(2, mean=1.0)
        proc, space = simple_chain(c=1, vacation=vac)
        A1 = np.asarray(proc.A1)
        gamma = 0.5  # quantum rate (mean 2)
        x = space.index(2, 0, (1,), 0)            # quantum phase
        y = space.index(2, 0, (1,), space.m_quantum)  # vacation phase 0
        assert A1[x, y] == pytest.approx(gamma)

    def test_vacation_end_starts_quantum(self):
        proc, space = simple_chain(c=1)
        A1 = np.asarray(proc.A1)
        x = space.index(2, 0, (1,), 1)   # vacation phase (rate 1)
        y = space.index(2, 0, (1,), 0)   # quantum start
        assert A1[x, y] == pytest.approx(1.0)

    def test_level0_vacation_restart_drops_self_loop(self):
        """Exponential vacation at level 0: restart is a no-op."""
        proc, space = simple_chain(c=1)
        B00 = proc.boundary[0][0]
        # Single level-0 state: (a=0, (), vacation). Its only outflow is
        # the arrival (rate 0.5).
        assert B00.shape == (1, 1)
        assert B00[0, 0] == pytest.approx(-0.5)

    def test_level0_erlang_vacation_restarts_at_stage_one(self):
        vac = erlang(2, mean=1.0)
        proc, space = simple_chain(c=1, vacation=vac)
        B00 = proc.boundary[0][0]
        # State (0, (), V1) completes the vacation (stage rate 2 = k/mean)
        # and restarts at V0.
        x = space.index(0, 0, (0,), space.m_quantum + 1)
        y = space.index(0, 0, (0,), space.m_quantum + 0)
        assert B00[x, y] == pytest.approx(2.0)


class TestAgainstBruteForce:
    def test_stationary_matches_truncated_gth(self):
        """Full chain solution vs dense truncation, multi-phase case."""
        from repro.qbd import solve_qbd
        from tests.markov.ctmc_oracle import solve_stationary_gth
        proc, space = simple_chain(
            c=2,
            arrival=exponential(0.4),
            service=erlang(2, mean=1.0),
            quantum=erlang(2, mean=1.5),
            vacation=erlang(2, mean=0.8),
        )
        sol = solve_qbd(proc)
        Q, tags = truncated_generator(proc, 60)
        pi = solve_stationary_gth(Q)
        mean_direct = sum(lvl * pi[i] for i, (lvl, _) in enumerate(tags))
        assert sol.mean_level == pytest.approx(mean_direct, rel=1e-6)
        # State-by-state agreement on the boundary.
        offset = 0
        for lvl in range(3):
            d = space.level_dim(lvl)
            assert pi[offset:offset + d] == pytest.approx(sol.level(lvl),
                                                          abs=1e-8)
            offset += d
