"""Quasi-birth-death (QBD) processes and matrix-geometric solutions.

A (continuous-time) QBD is a Markov chain whose states are organized in
*levels* ``0, 1, 2, ...`` with transitions only between adjacent
levels.  From some boundary level ``b`` onward the transition blocks
repeat: ``A0`` (up one level), ``A1`` (within a level), ``A2`` (down
one level).  Neuts' matrix-geometric result (Theorem 4.2 of the paper)
states that the stationary vector satisfies
``pi_{b+n+1} = pi_{b+n} R`` where ``R`` is the minimal non-negative
solution of ``R^2 A2 + R A1 + A0 = 0`` with spectral radius below 1.

This package provides:

* :class:`~repro.qbd.structure.QBDProcess` — the process description
  (level-dependent boundary blocks + repeating blocks) with structural
  validation;
* :mod:`~repro.qbd.rmatrix` — four ``R`` solvers (logarithmic
  reduction, cyclic reduction, successive substitution, and a
  spectral invariant-subspace solve — the rungs of the resilience
  fallback chain; the logarithmic reduction and the warm-start Newton
  refinement are the stacked kernels of :mod:`repro.kernels.batched`
  on a stack of one);
* :mod:`~repro.qbd.stability` — the mean-drift stability test
  (Theorem 4.4);
* :mod:`~repro.qbd.boundary` / :mod:`~repro.qbd.stationary` — boundary
  balance solve, normalization, and the resulting
  :class:`~repro.qbd.stationary.QBDStationaryDistribution` with
  closed-form level moments (eq. 37).
"""

from repro.qbd.rmatrix import solve_R
from repro.qbd.stability import drift, is_stable
from repro.qbd.stationary import QBDStationaryDistribution, solve_qbd
from repro.qbd.structure import QBDProcess

__all__ = [
    "QBDProcess",
    "solve_R",
    "drift",
    "is_stable",
    "solve_qbd",
    "QBDStationaryDistribution",
]
