"""The effective-quantum extraction returns its oracle's exact bits.

``tests/pipeline/extract_oracle.py`` places every boundary level with
its own gathers and walks the tail in fixed blocks; the production
module gathers all boundary levels through a per-space plan and walks
one power buffer.  The floating-point operations are meant to be the
same, so order, ``alpha`` and ``S`` must be equal, not merely close —
the figure gate depends on it (Figure 3's first point moves its
``N_2`` past 1e-12 on ulp-level changes to a quantum).
"""

import contextlib
from dataclasses import replace

import numpy as np
import pytest

from repro.core.generator import build_class_qbd
from repro.core.statespace import ClassStateSpace
from repro.errors import ValidationError
from repro.kernels import is_sparse
from repro.phasetype import PhaseType, erlang, exponential, hyperexponential
from repro.pipeline import extract
from repro.pipeline.assembly import build_class_qbd_fast
from repro.qbd.stationary import solve_qbd
from tests.pipeline import extract_oracle


def extract_effective_quanta(space, jobs, **kwargs):
    """The production quanta in job order (it yields them stack by
    stack)."""
    got = dict(extract.extract_effective_quanta(space, jobs, **kwargs))
    return [got[i] for i in range(len(jobs))]

ARRIVAL2 = PhaseType([0.6, 0.4], [[-1.0, 0.3], [0.1, -0.8]])
SERVICE2 = PhaseType([0.5, 0.5], [[-2.0, 0.5], [0.0, -1.5]])
# Entry and exit spread over several phases with unrounded rates: the
# absorbed sums and entry flows then add several terms, so a change in
# summation order shows in the bits.
QUANTUM2 = hyperexponential([0.45, 0.55], [0.61, 1.37])
VACATION3 = PhaseType([0.5, 0.3, 0.2], [[-3.1, 1.2, 0.4],
                                        [0.3, -2.2, 0.9],
                                        [0.0, 0.7, -4.3]])
VACATION10 = hyperexponential(
    np.array([0.13, 0.07, 0.11, 0.05, 0.17, 0.09, 0.12, 0.08, 0.1, 0.08]),
    [3.7, 1.9, 5.3, 2.3, 7.1, 1.3, 4.1, 2.9, 6.7, 1.7])


def _chain(partitions, arrival, service, quantum, vacation, policy):
    proc, space = build_class_qbd(partitions, arrival, service, quantum,
                                  vacation, policy=policy)
    return space, (proc, solve_qbd(proc), vacation)


def _assert_same_bits(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.order == w.order
        assert np.array_equal(g.alpha, w.alpha)
        assert np.array_equal(g.S, w.S)


def _check(space, jobs, **kwargs):
    got = extract_effective_quanta(space, jobs, **kwargs)
    want = extract_oracle.extract_effective_quanta(space, jobs, **kwargs)
    _assert_same_bits(got, want)
    return got


@pytest.mark.parametrize("policy", ["switch", "idle"])
@pytest.mark.parametrize("partitions", [1, 2, 4, 8])
def test_single_markovian_chain(policy, partitions):
    # One service state per level: the tridiagonal case every figure
    # point extracts.
    space, job = _chain(partitions, exponential(0.4 * partitions),
                        exponential(1.0), exponential(0.5), VACATION3,
                        policy)
    _check(space, [job])


@pytest.mark.parametrize("policy", ["switch", "idle"])
@pytest.mark.parametrize("partitions", [1, 3])
def test_phase_type_service_wide_repeating_levels(policy, partitions):
    space, job = _chain(partitions, ARRIVAL2, SERVICE2, QUANTUM2,
                        VACATION3, policy)
    assert len(extract._plan(space).repeating.svc) > 1
    _check(space, [job])


def _stacked_vs_single_calls(policy, vacation):
    """Four chains of one space extracted in one call.

    Each stacked quantum must carry the bits of the chain's own n = 1
    call, the production one and the oracle's alike.
    """
    jobs = []
    mean = vacation.mean
    for lam, vac in ((0.4, vacation), (0.2, vacation.rescaled(0.7 * mean)),
                     (0.4, vacation.rescaled(1.01 * mean)),
                     (0.55, vacation)):
        space, job = _chain(2, exponential(lam), exponential(1.0),
                            QUANTUM2, vac, policy)
        jobs.append(job)
    got = extract_effective_quanta(space, jobs)
    for job, stacked in zip(jobs, got):
        _assert_same_bits([stacked], _check(space, [job]))
    return got


@pytest.mark.parametrize("policy", ["switch", "idle"])
def test_stacked_chains_over_several_depths(policy):
    got = _stacked_vs_single_calls(policy, VACATION3)
    assert len({q.order for q in got}) == 3


@pytest.mark.parametrize("policy", ["switch", "idle"])
def test_stacked_chains_with_long_absorbed_sums(policy):
    # Every vacation phase is an entry phase, so each absorbed row sum
    # has ten nonzero terms: NumPy sums a contiguous row of eight or
    # more with eight partial sums, but a strided one term by term.
    _stacked_vs_single_calls(policy, VACATION10)


def test_element_budget_splits_stacks_not_bits(monkeypatch):
    # A budget below one chain's sub-generator puts every chain in a
    # stack of its own (the walk still covers all of them); each
    # quantum keeps the bits of the one-stack call.
    jobs = []
    for lam in (0.4, 0.4, 0.4, 0.2):
        space, job = _chain(2, exponential(lam), exponential(1.0),
                            QUANTUM2, VACATION3, "switch")
        jobs.append(job)
    units = []

    def timed(indices):
        units.append(list(indices))
        return contextlib.nullcontext()

    whole = extract_effective_quanta(space, jobs)
    monkeypatch.setattr(extract, "STACK_ELEMENTS", 1)
    split = dict(extract.extract_effective_quanta(space, jobs, timed=timed))
    assert units == [[0, 1, 2, 3], [0], [1], [2], [3]]
    _assert_same_bits([split[i] for i in range(4)], whole)


@pytest.mark.parametrize("policy", ["switch", "idle"])
def test_csr_boundary_blocks(policy):
    # Levels of at least 48 states below level c are assembled in CSR
    # under backend="sparse"; the extraction densifies them.
    vacation = hyperexponential([0.3, 0.7], [2.7, 11.3])
    proc, space, _ = build_class_qbd_fast(
        8, ARRIVAL2, erlang(2, 1.0), QUANTUM2, vacation,
        policy=policy, backend="sparse")
    assert any(is_sparse(b) for row in proc.boundary for b in row
               if b is not None)
    job = (proc, solve_qbd(proc, backend="sparse"), vacation)
    _check(space, [job], max_levels=space.boundary_levels + 6)


@pytest.mark.parametrize("max_levels", [1, 3, 4, 7, 19, 40])
def test_walk_capped_at_max_levels(max_levels):
    # Near saturation the tail stays above the threshold for hundreds
    # of levels, so every cap here binds (1 and 3 sit at or below
    # c + 1 = 3, where the walk takes no step at all).
    space, job = _chain(2, exponential(1.7), exponential(1.0),
                        erlang(2, 1.0), erlang(3, 30.0), "switch")
    got = _check(space, [job], max_levels=max_levels)
    # Two service states (the quantum's phases) on each of levels 1..K.
    assert got[0].order == 2 * max(max_levels, space.boundary_levels + 1)


@pytest.mark.parametrize("truncation_mass", [1e-3, 1e-6, 1e-12, 1e-15])
def test_truncation_mass(truncation_mass):
    space, job = _chain(2, exponential(0.4), exponential(1.0),
                        QUANTUM2, VACATION3, "idle")
    _check(space, [job], truncation_mass=truncation_mass)


def test_no_flow_into_quantum_starts_raises():
    space, (proc, sol, vac) = _chain(2, exponential(0.4), exponential(1.0),
                                     erlang(2, 1.0), erlang(3, 2.0),
                                     "switch")
    empty = replace(sol, boundary_pi=tuple(np.zeros_like(p)
                                           for p in sol.boundary_pi))
    for extract in (extract_effective_quanta,
                    extract_oracle.extract_effective_quanta):
        with pytest.raises(ValidationError, match="never serves"):
            extract(space, [(proc, empty, vac)])


class _UncheckedSpace(ClassStateSpace):
    """A state space that skips validation, to reach layouts the
    extraction must refuse."""

    def __post_init__(self):
        pass


@pytest.mark.parametrize("fields, message", [
    (dict(partitions=2, m_quantum=0, m_vacation=5, policy="idle"),
     "no service states"),
    (dict(partitions=0, m_quantum=2, m_vacation=3, policy="switch"),
     "phase layout"),
])
def test_unextractable_spaces_raise(fields, message):
    space, job = _chain(2, exponential(0.4), exponential(1.0),
                        erlang(2, 1.0), erlang(3, 2.0), "idle")
    bad = _UncheckedSpace(m_arrival=1, m_service=1, **fields)
    for extract in (extract_effective_quanta,
                    extract_oracle.extract_effective_quanta):
        with pytest.raises(ValidationError, match=message):
            extract(bad, [job])
