"""Dense tagged-job laws: the oracle for :mod:`repro.core.response`.

The construction the level-structured law replaced, kept verbatim as
an independent check: a Python double loop over the ``m_max * (M + N)``
states writes every rate of the dense sub-generator, and the waiting
law restricts it with ``np.ix_``.  Both go through the validating
:class:`~repro.phasetype.PhaseType` constructor.
"""

from __future__ import annotations

import numpy as np

from repro.phasetype import PhaseType


def dense_response_law(solved, p: int, *, truncation_mass: float = 1e-10,
                       max_levels: int = 2000) -> PhaseType:
    """The response-time law of class ``p``, built dense."""
    cr = solved.classes[p]
    cls = solved.config.classes[p]
    space = cr.space
    c = space.partitions
    mu = cls.service_rate
    M = space.m_quantum
    N = space.m_vacation
    nk = M + N
    quantum = cls.quantum
    vacation = cr.vacation
    SG = np.asarray(quantum.S)
    bG = np.asarray(quantum.alpha)
    sG0 = np.asarray(quantum.exit_rates)
    V = np.asarray(vacation.S)
    zeta = np.asarray(vacation.alpha)
    v0 = np.asarray(vacation.exit_rates)

    sol = cr.stationary
    m_max = c + 2
    while m_max < max_levels and sol.tail_probability(m_max - 1) > truncation_mass:
        m_max += 1

    def idx(m: int, k: int) -> int:
        return (m - 1) * nk + k

    order = m_max * nk
    T = np.zeros((order, order))
    for m in range(1, m_max + 1):
        in_service = min(m, c)
        for k in range(nk):
            x = idx(m, k)
            if k < M:
                for k2 in range(M):
                    if k2 != k:
                        T[x, idx(m, k2)] += SG[k, k2]
                for j in np.nonzero(zeta)[0]:
                    T[x, idx(m, M + int(j))] += sG0[k] * zeta[j]
                if m > c:
                    T[x, idx(m - 1, k)] += in_service * mu
                else:
                    if m > 1:
                        T[x, idx(m - 1, k)] += (m - 1) * mu
            else:
                j = k - M
                for j2 in range(N):
                    if j2 != j:
                        T[x, idx(m, M + j2)] += V[j, j2]
                for k2 in np.nonzero(bG)[0]:
                    T[x, idx(m, int(k2))] += v0[j] * bG[k2]
    out = T.sum(axis=1)
    for m in range(1, min(m_max, c) + 1):
        for k in range(M):
            out[idx(m, k)] += mu
    T[np.diag_indices(order)] -= out

    alpha = np.zeros(order)
    for i in range(0, m_max):
        pi = sol.level(i)
        m0 = i + 1
        for jstate, (a, v, k) in enumerate(space.states(i)):
            alpha[idx(m0, k)] += pi[jstate]
    tail = max(0.0, 1.0 - alpha.sum())
    if tail > 0:
        deep = alpha[(m_max - 1) * nk:(m_max) * nk]
        if deep.sum() > 0:
            alpha[(m_max - 1) * nk:] += tail * deep / deep.sum()
        else:
            alpha[idx(m_max, M)] += tail
    alpha = alpha / alpha.sum()
    return PhaseType(alpha, T)


def dense_waiting_law(full: PhaseType, space) -> PhaseType:
    """The waiting-time law restricted out of a dense response law."""
    M = space.m_quantum
    nk = M + space.m_vacation
    states = np.arange(full.order)
    target = (states // nk < space.partitions) & (states % nk < M)
    keep = np.flatnonzero(~target)
    S_full = np.asarray(full.S)
    alpha_full = np.asarray(full.alpha)
    T = S_full[np.ix_(keep, keep)].copy()
    return PhaseType(alpha_full[keep], T)
