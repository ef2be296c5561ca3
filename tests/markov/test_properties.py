"""Property-based tests for the stationary solves."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tests.markov.ctmc_oracle import solve_stationary_gth
from tests.markov.ctmc_oracle import stationary_from_generator


@st.composite
def irreducible_generators(draw, max_n: int = 6):
    """Dense random generators — strictly positive off-diagonals."""
    n = draw(st.integers(2, max_n))
    raw = draw(hnp.arrays(
        np.float64, (n, n),
        elements=st.floats(0.05, 5.0, allow_nan=False, allow_infinity=False),
    ))
    Q = raw.copy()
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return Q


@given(Q=irreducible_generators())
@settings(max_examples=50, deadline=None)
def test_gth_solves_balance_equations(Q):
    pi = solve_stationary_gth(Q)
    assert np.all(pi > 0)
    np.testing.assert_allclose(pi.sum(), 1.0, rtol=1e-12)
    np.testing.assert_allclose(pi @ Q, 0.0, atol=1e-9)


@given(Q=irreducible_generators())
@settings(max_examples=50, deadline=None)
def test_gth_agrees_with_direct_solver(Q):
    a = solve_stationary_gth(Q)
    b = stationary_from_generator(Q, method="direct")
    np.testing.assert_allclose(a, b, atol=1e-9)

