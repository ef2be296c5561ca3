"""Shared numerical utilities.

Submodules
----------
``validation``
    Structural checks for stochastic vectors, (sub)stochastic matrices,
    CTMC generators and PH sub-generators.
``linalg``
    Stationary-vector solvers (GTH elimination, direct solve), spectral
    radius helpers, and Kronecker utilities.
``combinatorics``
    Enumeration of compositions / occupancy vectors used to build the
    service-phase state space.
``rng``
    Seed-sequence helpers for reproducible parallel streams.
``poisson``
    The Poisson window and weights of a uniformization series, shared by
    :class:`~repro.phasetype.PhaseType` and
    :func:`~repro.markov.uniformization.transient_distribution`.
"""

from repro.utils.combinatorics import (
    composition_index_map,
    compositions,
    num_compositions,
)
from repro.utils.linalg import (
    drazin_like_solve,
    kron_sum,
    solve_stationary_dtmc,
    solve_stationary_gth,
    spectral_radius,
    stationary_from_generator,
)
from repro.utils.validation import (
    check_generator,
    check_probability_vector,
    check_stochastic,
    check_subgenerator,
    check_substochastic,
    is_generator,
)

__all__ = [
    "compositions",
    "num_compositions",
    "composition_index_map",
    "spectral_radius",
    "kron_sum",
    "solve_stationary_gth",
    "solve_stationary_dtmc",
    "stationary_from_generator",
    "drazin_like_solve",
    "check_probability_vector",
    "check_stochastic",
    "check_substochastic",
    "check_generator",
    "check_subgenerator",
    "is_generator",
]
