"""Vacation distributions: heavy-traffic form and fixed-point form.

From class ``p``'s perspective the machine alternates between its own
quantum ``T_p`` and a *vacation* ``Z_p`` during which the other classes
hold the processors.  This module builds the PH distribution
``F_p`` of ``Z_p``:

* :func:`heavy_traffic_vacation` — Theorem 4.1: when every class has
  enough work to exhaust its quantum,
  ``F_p = C_p * G_{p+1} * C_{p+1} * ... * G_{p-1} * C_{p-1}``.
* :func:`fixed_point_vacation` — Theorem 4.3: reassembles ``F_p`` from
  the effective quanta the solved chains yield
  (:mod:`repro.pipeline.extract`), ``F_p = C_p * Q^eff_{p+1} *
  C_{p+1} * ... * Q^eff_{p-1} * C_{p-1}``.
* :func:`reduce_order` — optional moment-matching compression of an
  effective quantum before it re-enters the (state-space-expanding)
  convolution; justified by the insensitivity argument the paper makes
  (its refs [21, 22, 26]) and measured by the reduction ablation bench.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.core.config import SystemConfig
from repro.errors import ValidationError
from repro.kernels import ph_moments, select_backend
from repro.phasetype import PhaseType, convolve_many, match_three_moments, match_two_moments
from repro.policy import resolve_policy

__all__ = [
    "heavy_traffic_vacation",
    "fixed_point_vacation",
    "reduce_order",
    "REDUCTIONS",
]

#: Supported effective-quantum order reductions.
REDUCTIONS = ("exact", "moments2", "moments3")


def heavy_traffic_vacation(config: SystemConfig, p: int,
                           *, policy=None) -> PhaseType:
    """Theorem 4.1: the vacation of class ``p`` under heavy traffic.

    The convolution ``C_p * G_{p+1} * C_{p+1} * ... * G_{p-1} *
    C_{p-1}`` of quanta and overheads, of order
    ``N_p = sum_{n != p} M_n + sum_n m_{C_n}``.

    The cycle structure — which quanta, in which order — comes from the
    scheduling policy (:meth:`repro.policy.SchedulingPolicy.cycle_parts`);
    this builder only convolves what the policy hands it.  ``policy=None``
    is the paper's round-robin.
    """
    pol = resolve_policy(policy)
    return convolve_many(pol.cycle_parts(config, p))


def fixed_point_vacation(config: SystemConfig, p: int,
                         effective_quanta: dict[int, PhaseType],
                         *, policy=None) -> PhaseType:
    """Theorem 4.3: the vacation of class ``p`` from effective quanta.

    ``effective_quanta[n]`` must be present for every class ``n != p``.
    The cycle order again comes from the policy; the effective quanta
    replace the policy's full quanta class-for-class.
    """
    pol = resolve_policy(policy)
    return convolve_many(
        pol.cycle_parts(config, p, effective_quanta=effective_quanta))


def reduce_order(dist: PhaseType, reduction: str, *,
                 backend: str | None = None,
                 pattern: Callable[[], tuple] | None = None) -> PhaseType:
    """Compress a PH distribution by moment matching.

    ``reduction`` is one of :data:`REDUCTIONS`.  The atom at zero is
    preserved exactly; the positive part is refit from its conditional
    moments.

    ``backend`` selects how the raw moments are computed.  The dense
    path inverts ``-S`` outright (and caches the inverse on the
    distribution); past the selector threshold the moments come from
    one sparse LU factorization and ``k`` back-substitutions instead
    (:func:`repro.kernels.ph_moments`) — for the effective quanta of
    large machines, whose sub-generator order grows with the truncated
    chain, that drops the ``reduce`` stage from ``O(order^3)`` dense
    to the cost of a banded solve.  ``pattern``, when given, returns
    where ``dist.S`` may be nonzero (see
    :func:`repro.kernels.sparse.band_csc`); it is called only when the
    moments go sparse, whose operand is then read from it.
    """
    if reduction not in REDUCTIONS:
        raise ValidationError(f"unknown reduction {reduction!r}; use one of {REDUCTIONS}")
    if reduction == "exact":
        return dist
    atom = dist.atom_at_zero
    if atom > 1.0 - 1e-9:
        # Essentially always skipped: a pure atom at zero.
        return PhaseType(np.zeros(1), [[-1.0]])
    cond = 1.0 - atom
    kmax = 2 if reduction == "moments2" else 3
    if select_backend(backend, dist.order, site="reduce") == "sparse":
        moments = ph_moments(dist.alpha, dist.S, kmax, backend=backend,
                             pattern=pattern() if pattern else None)
    else:
        moments = [dist.moment(k) for k in range(1, kmax + 1)]
    m1 = moments[0] / cond
    m2 = moments[1] / cond
    if reduction == "moments2":
        scv = m2 / m1 ** 2 - 1.0
        fitted = match_two_moments(m1, max(scv, 1e-6))
    else:
        m3 = moments[2] / cond
        fitted = match_three_moments(m1, m2, m3)
    if atom <= 1e-15:
        return fitted
    return PhaseType.from_trusted(cond * np.asarray(fitted.alpha), fitted.S)
