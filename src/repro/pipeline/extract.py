"""Effective-quantum extraction (Theorem 4.3), stacked over n >= 1 chains.

:func:`repro.core.vacation.effective_quantum` is the reference
implementation and documents the construction; this module computes
the same absorbing PH with the per-iteration overhead stripped out.
It runs once per stable class in every fixed-point iteration, and
almost all of its cost is bookkeeping rather than arithmetic, so:

* everything that depends only on the
  :class:`~repro.core.statespace.ClassStateSpace` is computed once per
  space and process (a bounded LRU cache keyed by the space) — the
  service/waiting index sets of every level (states are ordered
  ``(a, v, k)`` with ``k`` fastest, so they are arange patterns) and a
  gather plan that places all boundary levels at once: flat indices
  into the concatenated boundary blocks for the entries of ``T``, the
  absorbed row sums grouped by length, and the boundary entry flows
  stacked by shape;
* every level above the boundary shares the repeating blocks, so the
  retained/absorbing slices of ``A0``/``A1``/``A2`` are placed as
  strided diagonal bands in one copy each;
* the truncation search writes ``pi_b R^j`` level by level into one
  preallocated buffer and tests the tails over blocks that double in
  length (16, 32, 64, ... levels); the powers it generates are the
  repeating levels' entry flows.

:func:`extract_effective_quanta` is the one implementation.  It takes
n >= 1 solved chains sharing a state space and stacks their work under
an element budget (:data:`STACK_ELEMENTS`).  The solve stage,
:func:`repro.pipeline.stages.extract_points`, calls it once per state
space over the classes of every point it is given (one point for a
single solve, a chunk's points for a sweep) and reduces each quantum
as soon as its stack is built.

The grouping never changes the arithmetic: each power, tail, row sum
and entry flow is the same NumPy/BLAS operation on the same operands
in the same order as a level-by-level placement, so the quanta are
fixed to the bit (``tests/pipeline/test_extract_bits.py`` holds such a
placement as its oracle).  Stacking does not change them either: every
stacked operation acts per slice, and the gathered operands of the
absorbed sums and entry flows are copied contiguous first, because
NumPy's fancy indexing lays a stack out slice-innermost and a product
or long sum over such an operand runs a strided kernel instead of BLAS
or pairwise summation.  A chain extracted with others gets the bits of
its own n = 1 call, so a chunk's points match one-at-a-time solves.
Against the reference implementation the quanta agree to
floating-point noise only (``tests/pipeline/test_extract.py``),
because its sums associate differently.
"""

from __future__ import annotations

import contextlib
import functools
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.statespace import ClassStateSpace
from repro.errors import ValidationError
from repro.kernels.sparse import row_sums
from repro.phasetype import PhaseType
from repro.qbd.stationary import QBDStationaryDistribution
from repro.qbd.structure import QBDProcess

__all__ = ["STACK_ELEMENTS", "extract_effective_quanta",
           "extract_effective_quantum"]

#: Sub-generator entries (float64) one extraction stack may hold: the
#: chains of one truncation depth are stacked up to this budget, and a
#: chain bigger than it is extracted alone.
STACK_ELEMENTS = 250_000


@dataclass(frozen=True)
class _LevelIndices:
    """Service/waiting state indices of one level, in block order."""

    svc: np.ndarray
    wait: np.ndarray


@dataclass(frozen=True)
class _SumGroup:
    """Absorbed row sums of one length ``L``.

    ``src`` is ``(rows, L)`` flat indices into the concatenated boundary
    blocks; row ``r``'s sum is added to ``absorb[dst[r]]``.  The first
    ``split`` rows sum a level's own waiting columns, the rest the
    waiting columns of the level below, which are added second.
    """

    src: np.ndarray
    dst: np.ndarray
    split: int


@dataclass(frozen=True)
class _FlowGroup:
    """Boundary entry flows ``pi_l[wait] @ B_ll[wait, svc]`` of one shape.

    ``pi_src`` is ``(levels, 1, nw)`` into the concatenated boundary
    ``pi``, ``w_src`` is ``(levels, nw, nr)`` into the concatenated
    blocks, and the ``levels * nr`` products land at ``xi[dst]``.
    """

    pi_src: np.ndarray
    w_src: np.ndarray
    dst: np.ndarray


@dataclass(frozen=True)
class _ExtractionPlan:
    """Space-dependent (but solution-independent) extraction layout.

    The PH lists the service states of boundary levels
    ``lvl_start..c`` first (``nb`` of them); repeating level ``c + i``
    follows at ``nb + (i - 1) * nrep``.
    """

    lvl_start: int
    nb: int
    #: ``(i, j)`` of the boundary blocks, concatenated in this order and
    #: followed by one 0.0.
    blocks: tuple[tuple[int, int], ...]
    #: ``T[:nb, :nb + nrep]``, the boundary rows up to level c+1's
    #: columns, as flat indices into the concatenation (the trailing
    #: 0.0 where no block reaches).
    window: np.ndarray
    sums: tuple[_SumGroup, ...]
    flows: tuple[_FlowGroup, ...]
    #: Switch policy: the service rows of level 1 (the first ``T``
    #: rows), whose down block lands in level-0 waiting states and is
    #: absorbed whole.
    down_svc: np.ndarray | None
    repeating: _LevelIndices             # levels > c
    #: ``np.ix_`` tuples into the repeating blocks: service x service,
    #: service x waiting, waiting x service.
    rep_ss: tuple
    rep_sw: tuple
    rep_ws: tuple


def _indices(space: ClassStateSpace, level: int) -> _LevelIndices:
    """The service/waiting state indices of ``level``."""
    phases = space.cycle_phases_at(level)
    nk = len(phases)
    n_quantum = sum(1 for k in phases if space.is_quantum_phase(k))
    blocks = space.level_dim(level) // nk
    base = np.arange(blocks, dtype=np.intp)[:, None] * nk
    svc = (base + np.arange(n_quantum, dtype=np.intp)).ravel()
    wait = (base + np.arange(n_quantum, nk, dtype=np.intp)).ravel()
    return _LevelIndices(svc=svc, wait=wait)


@functools.lru_cache(maxsize=64)
def _plan(space: ClassStateSpace) -> _ExtractionPlan:
    """The gather plan of ``space``, built once per process.

    Spaces are value-hashable frozen dataclasses, so every equal space
    a fixed-point iteration re-creates finds its plan here; a new plan
    is built only when the vacation *order* changes.  Every caller
    shares the returned plan and must only read its arrays.
    """
    c = space.boundary_levels
    lvl_start = 0 if space.policy == "idle" else 1
    idx = {lvl: _indices(space, lvl) for lvl in range(lvl_start, c + 2)}
    rep = idx[c + 1]
    nrep = len(rep.svc)
    base = {}                       # first T row of each level
    nb = 0
    for lvl in range(lvl_start, c + 2):
        base[lvl] = nb
        nb += len(idx[lvl].svc) if lvl <= c else 0
    if nb == 0 and nrep == 0:
        raise ValidationError("no service states found; is m_quantum zero?")
    if c < lvl_start or len(idx[c].svc) != nrep:
        # The down band of level c+1 must land exactly on level c's
        # block: level c shares the repeating phase layout.
        raise ValidationError(
            "repeating levels do not share level c's phase layout")

    dim = {lvl: space.level_dim(lvl) for lvl in range(c + 2)}
    blocks: list[tuple[int, int]] = []
    start: dict[tuple[int, int], int] = {}
    size = 0
    for lvl in range(lvl_start, c + 1):
        for j in (lvl - 1, lvl, lvl + 1):
            if j >= lvl_start:
                blocks.append((lvl, j))
                start[lvl, j] = size
                size += dim[lvl] * dim[j]

    def flat(i, j, rows, cols):
        return start[i, j] + rows[:, None] * dim[j] + cols[None, :]

    window = np.full((nb, nb + nrep), size, dtype=np.intp)
    # Absorbed row sums by length: a level's own waiting columns,
    # and (above lvl_start) the waiting columns of the level below.
    own: dict[int, tuple[list, list]] = {}      # length: (src, dst)
    below: dict[int, tuple[list, list]] = {}
    flows: dict[tuple[int, int], tuple[list, list, list]] = {}
    pi_start = np.cumsum([0] + [dim[lvl] for lvl in range(c + 1)])
    for lvl in range(lvl_start, c + 1):
        rows = idx[lvl].svc
        nr = len(rows)
        at = base[lvl] + np.arange(nr, dtype=np.intp)
        for j in (lvl - 1, lvl, lvl + 1):
            if j >= lvl_start:
                cols = idx[j].svc
                window[base[lvl]:base[lvl] + nr,
                       base[j]:base[j] + len(cols)] = \
                    flat(lvl, j, rows, cols)
        for table, j in ((own, lvl), (below, lvl - 1)):
            if j >= lvl_start and idx[j].wait.size:
                wait = idx[j].wait
                src, dst = table.setdefault(wait.size, ([], []))
                src.append(flat(lvl, j, rows, wait))
                dst.append(at)
        wait = idx[lvl].wait
        if wait.size:
            group = flows.setdefault((wait.size, nr), ([], [], []))
            group[0].append(pi_start[lvl] + wait[None, :])
            group[1].append(flat(lvl, lvl, wait, rows))
            group[2].append(at)

    sums = []
    for length in sorted(own.keys() | below.keys()):
        own_src, own_dst = own.get(length, ([], []))
        below_src, below_dst = below.get(length, ([], []))
        sums.append(_SumGroup(src=np.concatenate(own_src + below_src),
                              dst=np.concatenate(own_dst + below_dst),
                              split=sum(len(a) for a in own_dst)))
    return _ExtractionPlan(
        lvl_start=lvl_start, nb=nb, blocks=tuple(blocks),
        window=window, sums=tuple(sums),
        flows=tuple(
            _FlowGroup(pi_src=np.stack(pis), w_src=np.stack(ws),
                       dst=np.concatenate(ats))
            for pis, ws, ats in flows.values()),
        down_svc=idx[1].svc if lvl_start == 1 else None,
        repeating=rep,
        rep_ss=np.ix_(rep.svc, rep.svc),
        rep_sw=np.ix_(rep.svc, rep.wait),
        rep_ws=np.ix_(rep.wait, rep.svc))


def _entries(block) -> np.ndarray:
    """A boundary block's entries in row-major order (CSR densified)."""
    return (block if isinstance(block, np.ndarray)
            else block.toarray()).ravel()


#: The 0.0 after the concatenated boundary blocks.
_ZERO = np.zeros(1)


#: Levels in the first speculative tail-walk block; each next block
#: doubles.
_FIRST_BLOCK = 16


def _truncation_walk(sols, c: int, truncation_mass: float,
                     max_levels: int):
    """Truncation levels ``K`` and the powers ``P[:, j] = pi_b R^(j+1)``.

    Every slice follows the rule tail(K) = pi_b R^{K-c+1} (I - R)^{-1} e
    and stops at the first level ``K >= c + 1`` whose tail is within
    ``truncation_mass`` or that reaches ``max_levels``.  The powers are
    sequential products written into one buffer; the tails of a block
    of levels are evaluated in one stacked einsum, and powers past a
    slice's stopping level are computed but never read.
    """
    n = len(sols)
    Rs = np.stack([np.asarray(s.R, dtype=np.float64) for s in sols])
    d = Rs.shape[1]
    pib = np.stack([np.asarray(s.boundary_pi[s.boundary_levels],
                               dtype=np.float64) for s in sols])
    w = np.linalg.solve(np.eye(d)[None] - Rs, np.ones((n, d, 1)))[..., 0]
    # Tail(K) reads P[:, K - c], and K never passes max(max_levels, c+1).
    P = np.empty((n, max(max_levels - c, 1) + 1, d))
    if n == 1:
        # A 2-D product on the one chain: the same BLAS call as the
        # stacked matmul, without the gufunc overhead.
        R = Rs[0]

        def extend(lo, hi):
            prev = P[0, lo - 1]
            for row in P[0, lo:hi]:
                np.dot(prev, R, out=row)
                prev = row

        np.dot(pib[0], R, out=P[0, 0])
    else:
        def extend(lo, hi):
            for j in range(lo, hi):
                np.matmul(P[:, j - 1:j], Rs, out=P[:, j:j + 1])

        np.matmul(pib[:, None, :], Rs, out=P[:, :1])
    extend(1, 2)
    # Slices still walking sit at K = c + lo - 1: column s of the next
    # block is level K + 1 + s, and a block that ends at the buffer's
    # last row ends at level max_levels, the cap.
    K = np.full(n, c + 1, dtype=np.intp)
    live = ((c + 1 < max_levels)
            & (np.einsum("nd,nd->n", P[:, 1], w) > truncation_mass))
    lo, block = 2, _FIRST_BLOCK
    while live.any():
        hi = min(lo + block, P.shape[1])
        extend(lo, hi)
        go = np.einsum("nbd,nd->nb", P[:, lo:hi], w) > truncation_mass
        if hi == P.shape[1]:
            go[:, -1] = False
        on = go.all(axis=1)
        K[live] += np.where(on, hi - lo, go.argmin(axis=1) + 1)[live]
        live &= on
        lo, block = hi, 2 * block
    return K, P


def extract_effective_quantum(space: ClassStateSpace, process: QBDProcess,
                              solution: QBDStationaryDistribution,
                              vacation: PhaseType,
                              *, truncation_mass: float = 1e-9,
                              max_levels: int = 400) -> PhaseType:
    """Fast equivalent of :func:`repro.core.vacation.effective_quantum`.

    Same construction, same truncation rule, same entry vector; see the
    reference implementation for the semantics.  This is
    :func:`extract_effective_quanta` for one chain.
    """
    (_, quantum), = extract_effective_quanta(
        space, [(process, solution, vacation)],
        truncation_mass=truncation_mass, max_levels=max_levels)
    return quantum


def extract_effective_quanta(space: ClassStateSpace,
                             jobs: Sequence[tuple[QBDProcess,
                                                  QBDStationaryDistribution,
                                                  PhaseType]],
                             *, truncation_mass: float = 1e-9,
                             max_levels: int = 400,
                             timed: Callable | None = None,
                             ) -> Iterator[tuple[int, PhaseType]]:
    """Raw effective quanta of n >= 1 solved chains sharing ``space``.

    ``jobs`` are ``(process, solution, vacation)`` triples.  Yields
    ``(index, quantum)`` for every job, stack by stack: the truncation
    tail-walk runs lockstep across the jobs, and the chains of one
    truncation depth are stacked, up to :data:`STACK_ELEMENTS`
    sub-generator entries per stack (at least one chain), for the level
    placement and the ``pi R^n`` entry flows.  A quantum's ``S`` is a
    view into its stack, so a caller that drops each quantum before
    asking for the next stack's keeps at most one stack alive.

    ``timed(indices)``, when given, returns a context manager wrapped
    around each unit of stacked work with the job indices it serves:
    the tail-walk (every job), then each stack.

    Raises
    ------
    ValidationError
        On the first job that cannot be extracted (no service states, or
        no probability flow into quantum starts).
    """
    plan = _plan(space)
    c = space.boundary_levels
    lvl_start = plan.lvl_start
    rep = plan.repeating
    nrep = len(rep.svc)
    n = len(jobs)
    procs = [pr for pr, _, _ in jobs]
    sols = [sol for _, sol, _ in jobs]
    timed = timed or (lambda indices: contextlib.nullcontext())

    with timed(range(n)):
        K, P = _truncation_walk(sols, c, truncation_mass, max_levels)
        # Boundary blocks (dense; CSR densified) and boundary pi, one
        # concatenated row per job: the plan's flat indices gather from
        # these.
        cat = np.stack([np.concatenate([*(_entries(pr.block(i, j))
                                          for i, j in plan.blocks), _ZERO])
                        for pr in procs])
        pis = np.stack([np.concatenate(sol.boundary_pi) for sol in sols])
        if plan.down_svc is not None:
            # Switch policy: the whole down block from level 1 lands in
            # level-0 waiting states — pure absorption.
            down = np.stack([row_sums(pr.block(1, 0))[plan.down_svc]
                             for pr in procs])

    def stack(Kv: int, idxs: list[int]) -> list[PhaseType]:
        """The quanta of ``idxs`` (truncated at ``Kv``), views into one
        ``T`` stack that lives as long as they do."""
        ns = len(idxs)
        sel = slice(None) if ns == n else idxs
        nlev = Kv - c                        # repeating levels, >= 1
        off0 = plan.nb
        order = off0 + nlev * nrep

        T = np.zeros((ns, order, order))
        absorb = np.zeros((ns, order))
        xi = np.zeros((ns, order))

        # ---- boundary levels: the plan's gathers -----------------------
        # Local blocks keep their diagonal entries: they land on T's
        # diagonal, which is rebuilt from the row sums below.
        csel = cat[sel]
        T[:, :off0, :off0 + nrep] += csel[:, plan.window]
        # Contiguous copies keep every stacked slice on the kernels an
        # n = 1 call takes (a gather lays a stack slice-innermost).
        sums = [np.ascontiguousarray(csel[:, g.src]).sum(axis=2)
                for g in plan.sums]
        for g, s in zip(plan.sums, sums):
            absorb[:, g.dst[:g.split]] += s[:, :g.split]
        for g, s in zip(plan.sums, sums):
            absorb[:, g.dst[g.split:]] += s[:, g.split:]
        if plan.down_svc is not None:
            absorb[:, :len(plan.down_svc)] += down[sel]
        psel = pis[sel]
        for g in plan.flows:
            flow = np.matmul(np.ascontiguousarray(psel[:, g.pi_src]),
                             np.ascontiguousarray(csel[:, g.w_src]))
            xi[:, g.dst] += flow.reshape(ns, -1)

        # ---- repeating levels: three strided band copies ----------------
        rep_local = np.empty((ns, nrep, nrep))
        rep_up = np.empty((ns, nrep, nrep))
        rep_down = np.empty((ns, nrep, nrep))
        labs = np.zeros((ns, nrep))
        dabs = np.zeros((ns, nrep))
        Wm = np.empty((ns, rep.wait.size, nrep))
        for si, gi in enumerate(idxs):
            pr = procs[gi]
            A0, A1, A2 = pr.A0, pr.A1, pr.A2
            rep_local[si] = A1[plan.rep_ss]
            rep_up[si] = A0[plan.rep_ss]
            rep_down[si] = A2[plan.rep_ss]
            if rep.wait.size:
                labs[si] = A1[plan.rep_sw].sum(axis=1)
                dabs[si] = A2[plan.rep_sw].sum(axis=1)
                Wm[si] = A1[plan.rep_ws]
        # The three bands are diagonal block runs, so a strided view
        # places all K - c levels of every job with one block copy each
        # (every location is written exactly once onto zeros).
        s0, s1, s2 = T.strides
        lstep = (order + 1) * nrep * s2
        dview = np.lib.stride_tricks.as_strided(
            T[:, off0:, off0:], shape=(ns, nlev, nrep, nrep),
            strides=(s0, lstep, s1, s2))
        dview += rep_local[:, None]
        if nlev > 1:
            uview = np.lib.stride_tricks.as_strided(
                T[:, off0:, off0 + nrep:],
                shape=(ns, nlev - 1, nrep, nrep),
                strides=(s0, lstep, s1, s2))
            uview += rep_up[:, None]
        # Down target: level c shares the repeating phase layout, so the
        # band continues onto level c's block.
        dnview = np.lib.stride_tricks.as_strided(
            T[:, off0:, off0 - nrep:], shape=(ns, nlev, nrep, nrep),
            strides=(s0, lstep, s1, s2))
        dnview += rep_down[:, None]
        absorb[:, off0:off0 + nlev * nrep] += np.tile(labs + dabs, (1, nlev))

        diag = np.arange(order)
        T[:, diag, diag] = 0.0
        T[:, diag, diag] = -(T.sum(axis=2) + absorb)

        if rep.wait.size:
            # Entry flows of the repeating levels: levels c+1..K need
            # pi_b R^1 .. R^{nlev} restricted to waiting phases — the
            # walk's powers, pushed through one stacked matmul.
            flows = np.matmul(P[idxs, :nlev][:, :, rep.wait], Wm)
            xi[:, off0:off0 + nlev * nrep] += flows.reshape(ns, nlev * nrep)

        out = []
        for si, gi in enumerate(idxs):
            # Skipped quanta: vacation completions while the system is
            # empty.
            atom_flow = 0.0
            if lvl_start == 1:
                pi0 = sols[gi].level(0)
                v0 = jobs[gi][2].exit_rates
                atom_flow = float(
                    (pi0.reshape(-1, space.m_vacation) @ v0).sum())
            total = xi[si].sum() + atom_flow
            if total <= 0:
                raise ValidationError(
                    "no probability flow into quantum starts; the chain "
                    "never serves")
            # T is a sub-generator by construction (diagonal set from
            # the row sums plus absorption); skip the O(n^3) validation.
            out.append(PhaseType.from_trusted(xi[si] / total, T[si]))
        return out

    by_depth: dict[int, list[int]] = {}
    for i in range(n):
        by_depth.setdefault(int(K[i]), []).append(i)
    for Kv, idxs in by_depth.items():
        order = plan.nb + (Kv - c) * nrep
        per = max(1, STACK_ELEMENTS // (order * order))
        for lo in range(0, len(idxs), per):
            piece = idxs[lo:lo + per]
            with timed(piece):
                quanta = stack(Kv, piece)
            yield from zip(piece, quanta)
            del quanta
