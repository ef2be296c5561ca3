"""Property-based tests: the gang chain is a valid QBD for *any*
well-formed configuration.

Strategies draw random small systems (partition counts, PH orders,
rates, policies); properties assert the invariants the analysis relies
on: generator rows vanish, the drift test matches sp(R), flow
conservation (stationary throughput equals the arrival rate), and the
vacation construction's stochastic ordering.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.generator import build_class_qbd
from repro.core.measures import compute_measures
from repro.phasetype import erlang, exponential, hyperexponential
from repro.qbd.rmatrix import solve_R
from repro.qbd.stability import drift
from repro.qbd.stationary import solve_qbd

rates = st.floats(0.1, 3.0, allow_nan=False, allow_infinity=False)


@st.composite
def small_ph(draw, *, max_order: int = 2):
    kind = draw(st.sampled_from(["exp", "erlang", "hyper"]))
    if kind == "exp" or max_order == 1:
        return exponential(draw(rates))
    if kind == "erlang":
        return erlang(draw(st.integers(1, max_order)), rate=draw(rates))
    w = draw(st.floats(0.1, 0.9))
    return hyperexponential([w, 1 - w], [draw(rates), draw(rates)])


@st.composite
def class_chains(draw):
    c = draw(st.integers(1, 3))
    arrival = draw(small_ph())
    service = draw(small_ph())
    quantum = draw(small_ph())
    vacation = draw(small_ph())
    policy = draw(st.sampled_from(["switch", "idle"]))
    return c, arrival, service, quantum, vacation, policy


@given(chain=class_chains())
@settings(max_examples=40, deadline=None)
def test_generator_structure_always_valid(chain):
    """QBDProcess construction validates row sums and signs — merely
    building the chain without an exception is the property."""
    c, arrival, service, quantum, vacation, policy = chain
    process, space = build_class_qbd(c, arrival, service, quantum,
                                     vacation, policy=policy)
    assert process.phase_dim == space.level_dim(space.partitions)
    assert process.boundary_levels == c


@given(chain=class_chains())
@settings(max_examples=30, deadline=None)
def test_drift_matches_spectral_radius(chain):
    c, arrival, service, quantum, vacation, policy = chain
    process, _ = build_class_qbd(c, arrival, service, quantum, vacation,
                                 policy=policy)
    report = drift(process.A0, process.A1, process.A2)
    # Compare against sp(R) when a solution is attemptable.
    if report.stable:
        R = solve_R(process.A0, process.A1, process.A2)
        assert np.abs(np.linalg.eigvals(R)).max() < 1.0 + 1e-10


@given(chain=class_chains())
@settings(max_examples=25, deadline=None)
def test_flow_conservation(chain):
    """Stationary departure rate equals the arrival rate — the strongest
    single check on the whole construction."""
    c, arrival, service, quantum, vacation, policy = chain
    process, space = build_class_qbd(c, arrival, service, quantum,
                                     vacation, policy=policy)
    report = drift(process.A0, process.A1, process.A2)
    assume(report.stable and report.traffic_intensity < 0.95)
    solution = solve_qbd(process)
    measures = compute_measures(space, solution,
                                arrival_rate=arrival.rate,
                                service=service, vacation=vacation)
    np.testing.assert_allclose(measures.throughput, arrival.rate,
                               rtol=1e-5)
    # Utilization identity: rho_p = lambda / (c mu).
    np.testing.assert_allclose(
        measures.utilization, arrival.rate / (c * service.rate), rtol=1e-5)


@given(chain=class_chains())
@settings(max_examples=25, deadline=None)
def test_total_probability_mass(chain):
    c, arrival, service, quantum, vacation, policy = chain
    process, _ = build_class_qbd(c, arrival, service, quantum, vacation,
                                 policy=policy)
    report = drift(process.A0, process.A1, process.A2)
    assume(report.stable and report.traffic_intensity < 0.95)
    solution = solve_qbd(process)
    np.testing.assert_allclose(solution.total_mass_check(), 1.0, atol=1e-8)
    # Tail probabilities are a valid survival function.
    tails = [solution.tail_probability(k) for k in range(8)]
    assert all(1e-12 >= b - a for a, b in zip(tails, tails[1:]))


@given(chain=class_chains(), x=st.floats(0.05, 10.0))
@settings(max_examples=25, deadline=None)
def test_effective_quantum_dominated_by_raw_quantum(chain, x):
    """min(T, emptying time) is stochastically below T."""
    from tests.core.vacation_oracle import effective_quantum
    c, arrival, service, quantum, vacation, policy = chain
    process, space = build_class_qbd(c, arrival, service, quantum,
                                     vacation, policy=policy)
    report = drift(process.A0, process.A1, process.A2)
    assume(report.stable and report.traffic_intensity < 0.9)
    solution = solve_qbd(process)
    eq = effective_quantum(space, process, solution, vacation,
                           truncation_mass=1e-8, max_levels=120)
    assert eq.mean <= quantum.mean + 1e-9
    assert eq.sf(x) <= quantum.sf(x) + 1e-7
