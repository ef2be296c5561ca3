"""Vectorized effective-quantum extraction vs the reference implementation."""

import numpy as np
import pytest

from repro.core.generator import build_class_qbd
from repro.phasetype import PhaseType, erlang, exponential
from repro.pipeline import extract
from repro.qbd.stationary import solve_qbd
from tests.core.vacation_oracle import effective_quantum


def extract_effective_quanta(space, jobs, **kwargs):
    """The production quanta in job order (it yields them stack by
    stack)."""
    got = dict(extract.extract_effective_quanta(space, jobs, **kwargs))
    return [got[i] for i in range(len(jobs))]


def extract_effective_quantum(space, process, solution, vacation, **kwargs):
    """The production quantum of one chain (an n = 1 call)."""
    (quantum,) = extract_effective_quanta(
        space, [(process, solution, vacation)], **kwargs)
    return quantum

ARRIVAL2 = PhaseType([0.6, 0.4], [[-1.0, 0.3], [0.1, -0.8]])
SERVICE2 = PhaseType([0.5, 0.5], [[-2.0, 0.5], [0.0, -1.5]])


def _solved(partitions, arrival, service, quantum, vacation, policy):
    proc, space = build_class_qbd(partitions, arrival, service, quantum,
                                  vacation, policy=policy)
    return space, proc, solve_qbd(proc)


@pytest.mark.parametrize("policy", ["switch", "idle"])
@pytest.mark.parametrize("partitions", [1, 2, 4])
def test_extraction_matches_reference_markovian(policy, partitions):
    vacation = erlang(3, 2.0)
    space, proc, sol = _solved(partitions, exponential(0.4), exponential(1.0),
                               erlang(2, 1.0), vacation, policy)
    ref = effective_quantum(space, proc, sol, vacation)
    fast = extract_effective_quantum(space, proc, sol, vacation)
    assert fast.order == ref.order
    np.testing.assert_allclose(fast.alpha, ref.alpha, atol=1e-10)
    np.testing.assert_allclose(fast.S, ref.S, atol=1e-10)
    assert abs(fast.atom_at_zero - ref.atom_at_zero) < 1e-12


@pytest.mark.parametrize("policy", ["switch", "idle"])
@pytest.mark.parametrize("partitions", [1, 3])
def test_extraction_matches_reference_phase_type(policy, partitions):
    vacation = exponential(0.7)
    space, proc, sol = _solved(partitions, ARRIVAL2, SERVICE2, erlang(3, 1.5),
                               vacation, policy)
    ref = effective_quantum(space, proc, sol, vacation)
    fast = extract_effective_quantum(space, proc, sol, vacation)
    assert fast.order == ref.order
    np.testing.assert_allclose(fast.alpha, ref.alpha, atol=1e-10)
    np.testing.assert_allclose(fast.S, ref.S, atol=1e-10)
    assert abs(fast.atom_at_zero - ref.atom_at_zero) < 1e-12


def test_truncation_parameters_respected():
    vacation = erlang(3, 2.0)
    space, proc, sol = _solved(2, exponential(0.4), exponential(1.0),
                               erlang(2, 1.0), vacation, "switch")
    for tmass, max_levels in ((1e-6, 400), (1e-12, 400), (1e-9, 7)):
        ref = effective_quantum(space, proc, sol, vacation,
                                truncation_mass=tmass, max_levels=max_levels)
        fast = extract_effective_quantum(space, proc, sol, vacation,
                                         truncation_mass=tmass,
                                         max_levels=max_levels)
        assert fast.order == ref.order, (tmass, max_levels)
        np.testing.assert_allclose(fast.alpha, ref.alpha, atol=1e-10)
        np.testing.assert_allclose(fast.S, ref.S, atol=1e-10)


def test_workspace_plan_reused_across_solutions():
    # The per-process plan cache builds one plan per state space.
    extract._plan.cache_clear()
    for vac in (erlang(3, 2.0), erlang(3, 0.9)):
        space, proc, sol = _solved(2, exponential(0.4), exponential(1.0),
                                   erlang(2, 1.0), vac, "switch")
        ref = effective_quantum(space, proc, sol, vac)
        fast = extract_effective_quantum(space, proc, sol, vac)
        np.testing.assert_allclose(fast.alpha, ref.alpha, atol=1e-10)
        np.testing.assert_allclose(fast.S, ref.S, atol=1e-10)
    # Same vacation order -> an equal space, so one plan serves both.
    info = extract._plan.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


@pytest.mark.parametrize("policy", ["switch", "idle"])
def test_stacked_call_equals_each_single_call(policy):
    # One call over n >= 2 chains of one state space gives every chain
    # the bits its own n = 1 call gives.  The chains spread over three
    # truncation depths, and the first and third share one, so the call
    # stacks within a depth subgroup too.
    jobs = []
    for lam, vac in ((0.4, erlang(3, 2.0)), (0.2, erlang(3, 1.4)),
                     (0.4, erlang(3, 2.02)), (0.45, erlang(3, 1.0))):
        space, proc, sol = _solved(2, exponential(lam), exponential(1.0),
                                   erlang(2, 1.0), vac, policy)
        jobs.append((proc, sol, vac))
    stacked = extract_effective_quanta(space, jobs)
    orders = [q.order for q in stacked]
    assert orders[0] == orders[2] and len(set(orders)) == 3
    for (proc, sol, vac), got in zip(jobs, stacked):
        alone = extract_effective_quantum(space, proc, sol, vac)
        assert np.array_equal(got.alpha, alone.alpha)
        assert np.array_equal(got.S, alone.S)
