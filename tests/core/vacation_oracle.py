"""The reference effective-quantum extraction (Theorem 4.3), as a test oracle.

:func:`repro.pipeline.extract.extract_effective_quanta` is the one
product implementation: it places whole boundary levels through a
per-space gather plan and stacks chains.  :func:`effective_quantum`
builds the same absorbing PH one level at a time, straight from the
construction, so tests can check the production quanta against it to
floating-point noise (its sums associate differently) and patch it
into the solve stage (``tests/legacy_route.py``).
"""

from __future__ import annotations

import numpy as np

from repro.core.statespace import ClassStateSpace
from repro.errors import ValidationError
from repro.phasetype import PhaseType
from repro.qbd.stationary import QBDStationaryDistribution
from repro.qbd.structure import QBDProcess
from tests.kernels.sparse_helpers import sub_dense

__all__ = ["effective_quantum"]


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


def _off_diagonal(M: np.ndarray) -> np.ndarray:
    out = M.copy()
    np.fill_diagonal(out, 0.0)
    return out
