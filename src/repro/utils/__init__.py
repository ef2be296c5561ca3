"""Shared numerical utilities.

Submodules
----------
``validation``
    Structural checks for sub-probability vectors and PH
    sub-generators.
``combinatorics``
    Enumeration of compositions / occupancy vectors used to build the
    service-phase state space.
``rng``
    Named, independent random streams from one root seed.
``poisson``
    The Poisson window and weights of a uniformization series, used by
    :class:`~repro.phasetype.PhaseType`.
"""

from repro.utils.combinatorics import (
    composition_index_map,
    compositions,
    num_compositions,
)
from repro.utils.validation import check_subgenerator

__all__ = [
    "compositions",
    "num_compositions",
    "composition_index_map",
    "check_subgenerator",
]
