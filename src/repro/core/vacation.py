"""Vacation distributions: heavy-traffic form and fixed-point form.

From class ``p``'s perspective the machine alternates between its own
quantum ``T_p`` and a *vacation* ``Z_p`` during which the other classes
hold the processors.  This module builds the PH distribution
``F_p`` of ``Z_p``:

* :func:`heavy_traffic_vacation` — Theorem 4.1: when every class has
  enough work to exhaust its quantum,
  ``F_p = C_p * G_{p+1} * C_{p+1} * ... * G_{p-1} * C_{p-1}``.
* :func:`effective_quantum` — Theorem 4.3's ingredient: from class
  ``n``'s *solved* chain, the PH distribution of the time class ``n``
  actually holds the processors, ``min(T_n, time to empty)``, with an
  atom at zero for quanta that are skipped because class ``n``'s queue
  is empty when its turn comes.
* :func:`fixed_point_vacation` — reassembles ``F_p`` from effective
  quanta, ``F_p = C_p * Q^eff_{p+1} * C_{p+1} * ... * Q^eff_{p-1} *
  C_{p-1}``.
* :func:`reduce_order` — optional moment-matching compression of an
  effective quantum before it re-enters the (state-space-expanding)
  convolution; justified by the insensitivity argument the paper makes
  (its refs [21, 22, 26]) and measured by the reduction ablation bench.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.core.config import SystemConfig
from repro.core.statespace import ClassStateSpace
from repro.errors import ValidationError
from repro.kernels import ph_moments, select_backend, sub_dense
from repro.phasetype import PhaseType, convolve_many, match_three_moments, match_two_moments
from repro.policy import resolve_policy
from repro.qbd.stationary import QBDStationaryDistribution
from repro.qbd.structure import QBDProcess

__all__ = [
    "heavy_traffic_vacation",
    "effective_quantum",
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


def effective_quantum(space: ClassStateSpace, process: QBDProcess,
                      solution: QBDStationaryDistribution,
                      vacation: PhaseType,
                      *, truncation_mass: float = 1e-9,
                      max_levels: int = 400) -> PhaseType:
    """Extract the effective-quantum PH from a solved class chain.

    Implements the absorbing construction of Theorem 4.3 on a
    tail-truncated copy of the state space:

    1. Pick the smallest ``K`` with ``P(level > K) < truncation_mass``
       (capped at ``max_levels``).
    2. Restrict the generator to the service states
       ``Omega^s = {(i, a, v, k) : k < M_p}`` for levels up to ``K``;
       every transition leaving ``Omega^s`` — quantum expiry, or the
       last job departing under the switch policy — becomes absorption
       into the paper's state ``(0, 0)``.  Arrivals at level ``K`` are
       reflected (dropped from both the block and the diagonal), which
       is harmless because service and quantum dynamics do not depend
       on the level above ``c_p``.
    3. The initial vector ``xi`` is the steady-state distribution of
       the state in which a quantum *begins*: the probability flow from
       waiting states into ``Omega^s`` (vacation completions at level
       ``>= 1``), plus — as an atom at zero — the flow of *skipped*
       quanta (vacation completions at level 0 under the switch
       policy).

    Parameters
    ----------
    space, process, solution:
        The class's state space, QBD blocks and stationary solution.
    vacation:
        The vacation PH ``F_p`` the chain was built with (needed to
        recover the vacation completion rates that the generator drops
        as level-0 self-loops).

    Returns
    -------
    PhaseType
        The effective quantum, order = number of truncated service
        states; ``atom_at_zero`` is the skip probability.
    """
    c = space.boundary_levels
    # ---- truncation level ------------------------------------------------
    K = c + 1
    while K < max_levels and solution.tail_probability(K) > truncation_mass:
        K += 1

    include_level0 = space.policy == "idle"
    lvl_start = 0 if include_level0 else 1

    # ---- index service states -------------------------------------------
    # For each level, local indices of quantum-phase states in block order.
    def service_locals(level: int) -> np.ndarray:
        idx = [j for j, (a, v, k) in enumerate(space.states(level))
               if space.is_quantum_phase(k)]
        return np.asarray(idx, dtype=np.intp)

    svc: dict[int, np.ndarray] = {}
    offsets: dict[int, int] = {}
    pos = 0
    repeating = None  # levels > c share one structure
    for lvl in range(lvl_start, K + 1):
        if lvl > c:
            if repeating is None:
                repeating = service_locals(lvl)
            svc[lvl] = repeating
        else:
            svc[lvl] = service_locals(lvl)
        offsets[lvl] = pos
        pos += len(svc[lvl])
    order = pos
    if order == 0:
        raise ValidationError("no service states found; is m_quantum zero?")

    T = np.zeros((order, order))
    absorb = np.zeros(order)

    def block(i: int, j: int) -> np.ndarray | None:
        # Boundary blocks may be CSR under the sparse backend; every
        # submatrix taken below is small, so extraction densifies.
        return process.block(i, j)

    for lvl in range(lvl_start, K + 1):
        rows = svc[lvl]
        base = offsets[lvl]
        # Within-level: service -> service retained; service -> waiting
        # states (vacation phases) are absorption (quantum expiry, or the
        # immediate switch after the last departure is in the down block).
        local = block(lvl, lvl)
        sub = sub_dense(local, rows, rows)
        T[base:base + len(rows), base:base + len(rows)] += _off_diagonal(sub)
        wait_cols = np.setdiff1d(np.arange(local.shape[1]), rows, assume_unique=False)
        if wait_cols.size:
            absorb[base:base + len(rows)] += \
                sub_dense(local, rows, wait_cols).sum(axis=1)
        # Up: retained unless at the truncation edge (reflected there).
        if lvl < K:
            upb = block(lvl, lvl + 1)
            up_rows = svc[lvl + 1]
            T[base:base + len(rows),
              offsets[lvl + 1]:offsets[lvl + 1] + len(up_rows)] += \
                sub_dense(upb, rows, up_rows)
            # Arrivals can only land in service states (the cycle phase is
            # unchanged), so there is no up-contribution to absorption.
        # Down: to service states of lvl-1 retained; to waiting states
        # (the switch-on-empty jump to level 0) is absorption.
        if lvl > lvl_start:
            dnb = block(lvl, lvl - 1)
            dn_rows = svc[lvl - 1]
            T[base:base + len(rows),
              offsets[lvl - 1]:offsets[lvl - 1] + len(dn_rows)] += \
                sub_dense(dnb, rows, dn_rows)
            dn_wait = np.setdiff1d(np.arange(dnb.shape[1]), dn_rows)
            if dn_wait.size:
                absorb[base:base + len(rows)] += \
                    sub_dense(dnb, rows, dn_wait).sum(axis=1)
        elif lvl == 1 and not include_level0:
            # Down block from level 1 lands entirely in level-0 waiting
            # states: pure absorption.
            dnb = block(1, 0)
            absorb[base:base + len(rows)] += \
                sub_dense(dnb, rows, np.arange(dnb.shape[1])).sum(axis=1)

    # Diagonal: rows sum to -(retained off-diagonal + absorption).
    np.fill_diagonal(T, 0.0)
    T[np.diag_indices(order)] = -(T.sum(axis=1) + absorb)

    # ---- initial vector xi ------------------------------------------------
    # Flow from waiting states into service states = vacation completions
    # at level >= 1 (or >= 0 under idle): pi(x) * local[x, y].
    xi = np.zeros(order)
    for lvl in range(lvl_start, K + 1):
        pi = solution.level(lvl)
        local = block(lvl, lvl)
        rows_wait = np.setdiff1d(np.arange(local.shape[0]), svc[lvl])
        if rows_wait.size == 0:
            continue
        flow = pi[rows_wait] @ sub_dense(local, rows_wait, svc[lvl])
        xi[offsets[lvl]:offsets[lvl] + len(svc[lvl])] += flow

    # Skipped quanta: vacation completions while the system is empty
    # (switch policy only).  The generator drops the self-loop part of
    # the level-0 vacation restart, so recover the full completion rate
    # v0[j] from the vacation distribution itself.
    atom_flow = 0.0
    if not include_level0:
        pi0 = solution.level(0)
        v0 = vacation.exit_rates
        for j, (a, v, k) in enumerate(space.states(0)):
            atom_flow += pi0[j] * v0[k - space.m_quantum]

    total = xi.sum() + atom_flow
    if total <= 0:
        raise ValidationError(
            "no probability flow into quantum starts; the chain never serves"
        )
    # T is a sub-generator by construction (diagonal set from the
    # row sums plus absorption); skip the O(n^3) validation.
    return PhaseType.from_trusted(xi / total, T)


def _off_diagonal(M: np.ndarray) -> np.ndarray:
    out = M.copy()
    np.fill_diagonal(out, 0.0)
    return out


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
