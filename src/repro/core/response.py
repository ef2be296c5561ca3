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

The resulting absorption-time law has order ``m_max * (M + N)``, but
it is held as its level structure, a :class:`LevelPhaseType`: the
``(M + N)``-square cycle block shared by every level, the per-level
down and absorption rates, and ``alpha`` by level.  One uniformization
step is then one ``(m_max, M + N) @ (M + N, M + N)`` product plus a
shifted row update, ``O(m_max (M + N)^2)`` instead of
``O((m_max (M + N))^2)``; the moments come from block substitution
over the levels, since the chain only moves down, and so does the
proof that the law is proper (every state reaches absorption) with its
exact condition number.  The dense sub-generator is built only when a
caller reads ``S``.  The law's mean must (and does — see the tests)
reproduce ``T_p = N_p / lambda_p``, which is a strong independent check
of both computations.

The waiting time is the same chain absorbed on first entry to
``{m <= c, quantum phase}``: the same blocks with a target set.

Limitations: exponential service and Poisson (exponential interarrival)
per-class streams; general PH service would require tracking the
tagged job's and its predecessors' phases (a straightforward but large
extension of the same construction).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.core.model import ClassResult, SolvedModel
from repro.core.statespace import ClassStateSpace
from repro.errors import NotAPhaseTypeError, ValidationError
from repro.phasetype import PhaseType
from repro.utils.validation import check_subprobability_vector

__all__ = ["LevelPhaseType", "response_time_distribution",
           "waiting_time_distribution", "waiting_from_response"]

#: Series terms grown per step.  Every extension covers whole chunks, so
#: a term's bits never depend on how far earlier probes grew the series.
_CHUNK = 256
#: Largest ``||S||_inf ||S^{-1}||_inf`` of a proper law, as in
#: :func:`repro.utils.validation.check_subgenerator`.
_MAX_COND = 1e14


class LevelPhaseType(PhaseType):
    """A phase-type law on levels ``1..L`` that the chain only descends.

    Phase ``(m, k)`` pairs a level with one of ``nk`` cycle phases and
    has index ``(m - 1) * nk + k``.  Within a level the chain moves at
    the off-diagonal rates ``cycle[k, k']``, the same at every level;
    from ``(m, k)`` it steps to ``(m - 1, k)`` at rate
    ``down[m - 1, k]`` and is absorbed at rate ``absorb[m - 1, k]``.
    States marked in ``target`` absorb on entry: they are not phases
    of the law, and initial mass on them is its atom at zero.

    ``alpha`` is ``(L, nk)``; the representation is checked on
    construction.  ``(-S)^{-1} e`` by forward substitution over the
    levels is finite and positive exactly when every state reaches
    absorption, and ``||S||_inf`` times its largest entry is the exact
    infinity-norm condition number (:attr:`condition`); a law above
    ``1e14`` raises :class:`~repro.errors.NotAPhaseTypeError`.
    """

    def __init__(self, alpha, cycle, down, absorb, target=None):
        shape = np.shape(alpha)
        L, nk = shape
        cycle = np.array(cycle, dtype=np.float64)
        np.fill_diagonal(cycle, 0.0)
        down = np.asarray(down, dtype=np.float64)
        absorb = np.asarray(absorb, dtype=np.float64)
        dead = (np.zeros(shape, dtype=bool) if target is None
                else np.asarray(target, dtype=bool))
        if cycle.shape != (nk, nk) or down.shape != shape \
                or absorb.shape != shape or dead.shape != shape:
            raise NotAPhaseTypeError(
                f"blocks do not match alpha's {L} levels x {nk} phases")
        if cycle.min() < 0 or down.min() < 0 or absorb.min() < 0 \
                or down[0].any():
            raise NotAPhaseTypeError(
                "rates must be non-negative, with no move below level 1")
        grid = check_subprobability_vector(
            np.ravel(alpha), name="alpha").reshape(shape)
        self._grid = grid
        self._cycle = cycle
        self._down = down
        self._absorb = absorb
        self._live = ~dead
        self._alpha = grid[self._live]
        #: Total outflow, the negated diagonal of ``S``; the exit rates
        #: add the moves into target states to the absorption.
        self._out = cycle.sum(axis=1) + down + absorb
        self._exit = absorb + dead @ cycle.T
        self._exit[1:] += down[1:] * dead[:-1]
        self._block_inv = self._block_inverses()
        self._t = self._solve(np.ones(shape))
        if not (np.all(np.isfinite(self._t)) and np.all((self._t > 0) | dead)):
            raise NotAPhaseTypeError("S is singular: some phase is recurrent")
        norm = float((2.0 * self._out - self._exit)[self._live].max())
        #: ``||S||_inf ||S^{-1}||_inf``, exact since ``(-S)^{-1} >= 0``.
        self.condition = norm * float(self._t.max())
        if self.condition > _MAX_COND:
            raise NotAPhaseTypeError(
                f"S is numerically singular (cond={self.condition:.2e})")
        # The series runs on the level grid, zero on target states.
        self._sums = (np.empty(0), np.empty(0), grid * self._live)

    def _block_inverses(self) -> np.ndarray:
        """``(-S_mm)^{-1}`` per level, zero on target rows and columns."""
        L, nk = self._grid.shape
        A = np.repeat(-self._cycle[None], L, axis=0)
        phases = np.arange(nk)
        A[:, phases, phases] = self._out
        # Identity on target states keeps the blocks invertible; the
        # inverse is zeroed there again.
        dead = ~self._live
        A[dead] = 0.0
        A.transpose(0, 2, 1)[dead] = 0.0
        A[:, phases, phases] += dead
        try:
            inv = np.linalg.inv(A)
        except np.linalg.LinAlgError:
            raise NotAPhaseTypeError(
                "S is singular: some phase is recurrent") from None
        inv[dead] = 0.0
        return inv

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        """``(-S)^{-1} rhs`` on the level grid, zero on target states.

        Forward substitution: level ``m`` only feeds level ``m - 1``, so
        ``x_m = (-S_mm)^{-1} (rhs_m + down_m x_{m-1})`` from the bottom.
        """
        x = np.empty_like(rhs)
        below = np.zeros(rhs.shape[1])
        for m, inv in enumerate(self._block_inv):
            below = inv @ (rhs[m] + self._down[m] * below)
            x[m] = below
        return x

    @property
    def order(self) -> int:
        """Number of transient phases (target states excluded)."""
        return self._alpha.size

    @cached_property
    def exit_rates(self) -> np.ndarray:
        """Exit-rate vector ``s0 = -S e`` into the absorbing state."""
        return self._exit[self._live]

    @cached_property
    def _S(self) -> np.ndarray:
        """The dense sub-generator, built only when a caller reads it.

        Shadows :class:`PhaseType`'s ``_S`` slot, so the inherited
        dense methods (``S``, ``sample``, ``laplace_transform``, ...)
        still work; none of the law's own methods reads it.
        """
        L, nk = self._grid.shape
        S = np.zeros((L, nk, L, nk))
        level = np.arange(L)[:, None]
        phase = np.arange(nk)
        S[level[:, 0], :, level[:, 0], :] = self._cycle
        S[level[1:], phase, level[:-1], phase] = self._down[1:]
        S[level, phase, level, phase] = -self._out
        S = S.reshape(L * nk, L * nk)
        if self._live.all():
            return S
        keep = np.flatnonzero(self._live)
        return S[np.ix_(keep, keep)]

    def moment(self, k: int) -> float:
        """Raw moment ``E[X^k] = k! * alpha (-S)^{-k} e``."""
        if k < 0:
            raise ValueError(f"moment order must be non-negative, got {k}")
        if k == 0:
            return 1.0
        x = self._t
        fact = 1.0
        for i in range(2, k + 1):
            x = self._solve(x)
            fact *= i
        return float(fact * (self._grid * x).sum())

    def absorbed_at(self, target) -> "LevelPhaseType":
        """The same chain, also absorbed on first entry to ``target``."""
        return LevelPhaseType(self._grid, self._cycle, self._down,
                              self._absorb, ~self._live | target)

    @cached_property
    def _uniformized(self):
        """The jump operator as level blocks, and ``theta``.

        ``P = I + S/theta`` is the shared ``cycle / theta`` within each
        level, the clipped diagonal ``1 - out/theta``, and
        ``down / theta`` one level down (zero into target states).
        """
        theta = float(self._out[self._live].max())
        diag = np.clip(1.0 - self._out / theta, 0.0, None)
        down = self._down[1:] * self._live[:-1] / theta
        live = None if self._live.all() else self._live.astype(np.float64)
        return (self._cycle / theta, diag, down, live), theta

    def _extend(self, v: np.ndarray, count: int):
        """Whole chunks of terms from the level-grid vector ``v``.

        The step is one ``(L, nk) @ (nk, nk)`` product plus the diagonal
        and the shifted down row.  ``c`` and ``d`` are reduced per
        chunk; chunks start at multiples of :data:`_CHUNK`, so a
        sequence grown in one call has the bits of one grown term by
        term.  ``d`` reads only the levels with an exit.
        """
        (cycle, diag, down, live), _ = self._uniformized
        span = (np.flatnonzero(self._exit.any(axis=1))[-1] + 1) * v.shape[1]
        s0 = self._exit.reshape(-1)[:span]
        count = -(-count // _CHUNK) * _CHUNK
        c = np.empty(count)
        d = np.empty(count)
        terms = np.empty((_CHUNK,) + v.shape)
        flat = terms.reshape(_CHUNK, -1)
        for start in range(0, count, _CHUNK):
            for term in terms:
                term[...] = v
                w = v @ cycle
                w += diag * v
                w[:-1] += down * v[1:]
                if live is not None:
                    w *= live
                v = w
            c[start:start + _CHUNK] = flat.sum(axis=1)
            d[start:start + _CHUNK] = flat[:, :span] @ s0
        return c, d, v


def response_time_distribution(solved: SolvedModel, p: int,
                               *, truncation_mass: float = 1e-10,
                               max_levels: int = 2000) -> LevelPhaseType:
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
    LevelPhaseType
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
    nk = M + space.m_vacation
    quantum = cls.quantum
    vacation = cr.vacation

    # ---- truncation of the tagged job's starting position --------------
    sol = cr.stationary
    m_max = c + 2
    while m_max < max_levels and sol.tail_probability(m_max - 1) > truncation_mass:
        m_max += 1

    # ---- the blocks: (m, k) at [m - 1, k], m in 1..m_max ----------------
    # Within a level: quantum moves, quantum expiry into the vacation,
    # vacation moves, vacation exit into a new quantum.
    cycle = np.zeros((nk, nk))
    cycle[:M, :M] = quantum.S
    cycle[M:, M:] = vacation.S
    cycle[:M, M:] = np.outer(quantum.exit_rates, vacation.alpha)
    cycle[M:, :M] = np.outer(vacation.exit_rates, quantum.alpha)
    # Service completions in quantum phases.  With m > c only jobs
    # ahead complete (c * mu); with m <= c the tagged job is in service:
    # its own completion is absorption, the m - 1 others' shrink m.
    m = np.arange(1, m_max + 1)
    down = np.zeros((m_max, nk))
    down[:, :M] = (np.minimum(m - 1, c) * mu)[:, None]
    absorb = np.zeros((m_max, nk))
    absorb[:c, :M] = mu

    # ---- PASTA initial vector -------------------------------------------
    # The tagged arrival sees stationary state (i, k); it becomes the
    # (i+1)-th job: m0 = i + 1, same cycle phase.  With order-1
    # arrivals and service, level i's states are its cycle phases.
    alpha = np.zeros((m_max, nk))
    for i in range(m_max):
        phases = space.cycle_phases_at(i)
        alpha[i, phases.start:phases.stop] = sol.level(i)
    # Tail mass beyond the truncation starts at the deepest level.
    flat = alpha.reshape(-1)
    tail = max(0.0, 1.0 - flat.sum())
    if tail > 0:
        # Distribute over the deepest level proportionally to its shape.
        deep = alpha[-1]
        if deep.sum() > 0:
            deep += tail * deep / deep.sum()
        else:  # pragma: no cover - degenerate
            deep[M] += tail
    alpha /= flat.sum()
    return LevelPhaseType(alpha, cycle, down, absorb)


def waiting_time_distribution(solved: SolvedModel, p: int,
                              *, truncation_mass: float = 1e-10,
                              max_levels: int = 2000) -> LevelPhaseType:
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


def waiting_from_response(full: LevelPhaseType,
                          space: ClassStateSpace) -> LevelPhaseType:
    """The waiting-time law of a built response-time law.

    ``full`` must be :func:`response_time_distribution`'s law for the
    class whose state space is ``space``; the result is what
    :func:`waiting_time_distribution` returns for that class, without
    building the response law a second time.  Every state keeps its
    total exit rate, so transitions into the target set
    ``{m <= c, quantum phase}`` become absorption; the response chain's
    own absorption (tagged completion at rate ``mu``) occurs only from
    target states, so nothing else leaks.  The initial mass on target
    states is the waited-zero probability, the law's atom at zero.
    """
    target = np.zeros(full._grid.shape, dtype=bool)
    target[:space.partitions, :space.m_quantum] = True
    return full.absorbed_at(target)
