"""Response-time *distributions* via tagged-job analysis.

The paper computes mean response times through Little's law
(Section 4.5).  This module goes further for exponential service: the
full response-time distribution of a class-``p`` job, as a phase-type
distribution, from which percentiles and SLO probabilities follow.

Construction (tagged-job / absorbing-chain argument):

* A Poisson arrival observes the stationary state (PASTA), giving the
  initial distribution over ``(m, k)`` where ``m`` counts the tagged
  job plus all jobs *ahead* of it and ``k`` is the cycle phase.
* Under FCFS with head-of-queue refill, jobs arriving *after* the
  tagged job can never influence it: freed partitions always go to
  earlier arrivals first, and the switch-on-empty event cannot fire
  while the tagged job is present.  The tagged-job chain therefore
  needs no arrival process at all — it only runs down.
* During quantum phases, service completes at rate
  ``min(m, c) * mu``; while ``m > c`` any completion moves the tagged
  job forward (``m -> m-1``); once ``m <= c`` the tagged job itself is
  in service and completes (absorption) at rate ``mu``, while the
  ``m - 1`` others complete in parallel.
* The cycle phase evolves exactly as in the class chain (quantum PH,
  vacation PH) — with the early switch impossible, the alternation is
  the plain ``G_p``/``F_p`` renewal.

The resulting absorption-time law is an order ``m_max * (M + N)``
phase-type distribution.  Its mean must (and does — see the tests)
reproduce ``T_p = N_p / lambda_p``, which is a strong independent check
of both computations.

Limitations: exponential service and Poisson (exponential interarrival)
per-class streams; general PH service would require tracking the
tagged job's and its predecessors' phases (a straightforward but large
extension of the same construction).
"""

from __future__ import annotations

import numpy as np

from repro.core.model import ClassResult, SolvedModel
from repro.core.statespace import ClassStateSpace
from repro.errors import ValidationError
from repro.phasetype import PhaseType

__all__ = ["response_time_distribution", "waiting_time_distribution",
           "waiting_from_response"]


def response_time_distribution(solved: SolvedModel, p: int,
                               *, truncation_mass: float = 1e-10,
                               max_levels: int = 2000) -> PhaseType:
    """The response-time distribution of class ``p`` as a PhaseType.

    Parameters
    ----------
    solved:
        A converged :class:`~repro.core.model.SolvedModel`.
    p:
        Class index; the class must have exponential service and
        arrival distributions and be stable.
    truncation_mass:
        Stationary tail mass beyond which queue positions are ignored
        (folded into the deepest retained level).

    Returns
    -------
    PhaseType
        Response-time law; ``.quantile(0.95)`` etc. answer SLO
        questions the mean cannot.
    """
    cr: ClassResult = solved.classes[p]
    if not cr.stable:
        raise ValidationError(f"class {p} is saturated; response time diverges")
    cls = solved.config.classes[p]
    if cls.service.order != 1:
        raise ValidationError(
            "response_time_distribution currently requires exponential "
            f"service; class {p} has order {cls.service.order}")
    if cls.arrival.order != 1:
        raise ValidationError(
            "the PASTA initial vector requires Poisson arrivals; class "
            f"{p} has an order-{cls.arrival.order} interarrival PH")

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

    # ---- truncation of the tagged job's starting position --------------
    sol = cr.stationary
    m_max = c + 2
    while m_max < max_levels and sol.tail_probability(m_max - 1) > truncation_mass:
        m_max += 1

    # ---- state indexing: (m, k), m in 1..m_max, k in 0..nk-1 ----------
    def idx(m: int, k: int) -> int:
        return (m - 1) * nk + k

    order = m_max * nk
    T = np.zeros((order, order))
    for m in range(1, m_max + 1):
        in_service = min(m, c)
        for k in range(nk):
            x = idx(m, k)
            if k < M:  # quantum phase
                # Quantum-phase internal moves.
                for k2 in range(M):
                    if k2 != k:
                        T[x, idx(m, k2)] += SG[k, k2]
                # Quantum expiry -> vacation.
                for j in np.nonzero(zeta)[0]:
                    T[x, idx(m, M + int(j))] += sG0[k] * zeta[j]
                # Service completions.
                if m > c:
                    # Only jobs ahead complete: tagged moves up.
                    T[x, idx(m - 1, k)] += in_service * mu
                else:
                    # Tagged in service: own completion is absorption
                    # (left out of T); others' completions shrink m.
                    if m > 1:
                        T[x, idx(m - 1, k)] += (m - 1) * mu
            else:      # vacation phase
                j = k - M
                for j2 in range(N):
                    if j2 != j:
                        T[x, idx(m, M + j2)] += V[j, j2]
                for k2 in np.nonzero(bG)[0]:
                    T[x, idx(m, int(k2))] += v0[j] * bG[k2]
    # Diagonals: total outflow including the absorption rate mu for
    # states with the tagged job in service during a quantum.
    out = T.sum(axis=1)
    for m in range(1, min(m_max, c) + 1):
        for k in range(M):
            out[idx(m, k)] += mu
    T[np.diag_indices(order)] -= out

    # ---- PASTA initial vector -------------------------------------------
    # The tagged arrival sees stationary state (i, v, k); it becomes the
    # (i+1)-th job: m0 = i + 1 (capped at m_max), same cycle phase.
    alpha = np.zeros(order)
    for i in range(0, m_max):
        pi = sol.level(i)
        m0 = i + 1
        for jstate, (a, v, k) in enumerate(space.states(i)):
            alpha[idx(m0, k)] += pi[jstate]
    # Tail mass beyond the truncation starts at the deepest level.
    tail = max(0.0, 1.0 - alpha.sum())
    if tail > 0:
        # Distribute over the deepest level proportionally to its shape.
        deep = alpha[(m_max - 1) * nk:(m_max) * nk]
        if deep.sum() > 0:
            alpha[(m_max - 1) * nk:] += tail * deep / deep.sum()
        else:  # pragma: no cover - degenerate
            alpha[idx(m_max, M)] += tail
    alpha = alpha / alpha.sum()
    return PhaseType(alpha, T)


def waiting_time_distribution(solved: SolvedModel, p: int,
                              *, truncation_mass: float = 1e-10,
                              max_levels: int = 2000) -> PhaseType:
    """Time from arrival until the tagged job first *receives service*.

    Same tagged-job chain as :func:`response_time_distribution`, but
    absorption happens on first entry to the set
    ``{m <= c, quantum phase}`` — the tagged job holds a partition and
    the machine is executing its class.  A job arriving to a free
    partition mid-quantum has waited zero: that probability appears as
    the returned distribution's ``atom_at_zero``.
    """
    full = response_time_distribution(solved, p,
                                      truncation_mass=truncation_mass,
                                      max_levels=max_levels)
    return waiting_from_response(full, solved.classes[p].space)


def waiting_from_response(full: PhaseType,
                          space: ClassStateSpace) -> PhaseType:
    """The waiting-time law restricted out of a built response-time law.

    ``full`` must be :func:`response_time_distribution`'s law for the
    class whose state space is ``space``; the result is what
    :func:`waiting_time_distribution` returns for that class, without
    building the response law a second time.
    """
    M = space.m_quantum
    nk = M + space.m_vacation
    # State s is (m, k) = (s // nk + 1, s % nk); the target set is
    # {m <= c, k < M}.
    states = np.arange(full.order)
    target = (states // nk < space.partitions) & (states % nk < M)
    keep = np.flatnonzero(~target)
    S_full = np.asarray(full.S)
    alpha_full = np.asarray(full.alpha)
    # Restrict to pre-service states.  Keeping the original diagonals
    # preserves each state's total exit rate, so the dropped columns
    # (transitions into the target set) become exactly the absorption
    # rates.  The response chain's own absorption (tagged completion at
    # rate mu) occurs only from target states, so nothing else leaks.
    T = S_full[np.ix_(keep, keep)].copy()
    # The initial mass on target states is the waited-zero probability,
    # represented as the PH atom through the alpha deficit.
    return PhaseType(alpha_full[keep], T)
