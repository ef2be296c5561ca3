"""Level-by-level effective-quantum extraction: the bit-identity oracle.

It computes what :mod:`repro.pipeline.extract` computes, one boundary
level at a time: each level is placed with its own fancy gathers, the
tail is walked in fixed blocks of 8 levels, and the powers are
collected in a list.  ``tests/pipeline/test_extract_bits.py`` asserts
that the production extraction returns exactly its bits; nothing in
``src/`` imports it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.statespace import ClassStateSpace
from repro.errors import ValidationError
from repro.kernels.sparse import row_sums
from repro.phasetype import PhaseType
from repro.qbd.stationary import QBDStationaryDistribution
from repro.qbd.structure import QBDProcess
from tests.kernels.sparse_helpers import sub_dense

__all__ = ["ExtractionWorkspace", "extract_effective_quanta"]


@dataclass(frozen=True)
class _LevelIndices:
    """Service/waiting state indices of one level, in block order."""

    svc: np.ndarray
    wait: np.ndarray


@dataclass(frozen=True)
class _ExtractionPlan:
    """Space-dependent (but solution-independent) extraction layout."""

    lvl_start: int
    boundary: tuple[_LevelIndices, ...]  # levels lvl_start..c
    repeating: _LevelIndices             # levels > c


class ExtractionWorkspace:
    """Caches one :class:`_ExtractionPlan` per state space.

    Spaces are value-hashable frozen dataclasses, so the cache survives
    the per-iteration re-creation of equal spaces; it only repopulates
    when the vacation *order* changes.
    """

    def __init__(self):
        self._plans: dict[ClassStateSpace, _ExtractionPlan] = {}

    def plan(self, space: ClassStateSpace) -> _ExtractionPlan:
        plan = self._plans.get(space)
        if plan is None:
            plan = self._build(space)
            self._plans[space] = plan
        return plan

    @staticmethod
    def _indices(space: ClassStateSpace, level: int) -> _LevelIndices:
        phases = space.cycle_phases_at(level)
        nk = len(phases)
        n_quantum = sum(1 for k in phases if space.is_quantum_phase(k))
        blocks = space.level_dim(level) // nk
        base = np.arange(blocks, dtype=np.intp)[:, None] * nk
        svc = (base + np.arange(n_quantum, dtype=np.intp)).ravel()
        wait = (base + np.arange(n_quantum, nk, dtype=np.intp)).ravel()
        return _LevelIndices(svc=svc, wait=wait)

    def _build(self, space: ClassStateSpace) -> _ExtractionPlan:
        c = space.boundary_levels
        lvl_start = 0 if space.policy == "idle" else 1
        boundary = tuple(self._indices(space, lvl)
                         for lvl in range(lvl_start, c + 1))
        return _ExtractionPlan(lvl_start=lvl_start, boundary=boundary,
                               repeating=self._indices(space, c + 1))


#: Speculative tail-walk steps per block, and their offsets 1..8.
_BLOCK = 8
_STEPS = np.arange(1, _BLOCK + 1)


def extract_effective_quanta(space: ClassStateSpace,
                             jobs: Sequence[tuple[QBDProcess,
                                                  QBDStationaryDistribution,
                                                  PhaseType]],
                             *, truncation_mass: float = 1e-9,
                             max_levels: int = 400,
                             workspace: ExtractionWorkspace | None = None,
                             ) -> list[PhaseType]:
    """Raw effective quanta of n >= 1 solved chains sharing ``space``.

    ``jobs`` are ``(process, solution, vacation)`` triples; the result
    holds one quantum per job, in order.  The truncation tail-walk runs
    lockstep across the jobs, and within each truncation-depth subgroup
    the level placement and the ``pi R^n`` entry flows are stacked.

    Raises
    ------
    ValidationError
        On the first job that cannot be extracted (no service states, or
        no probability flow into quantum starts).
    """
    if workspace is None:
        workspace = ExtractionWorkspace()
    plan = workspace.plan(space)
    c = space.boundary_levels
    lvl_start = plan.lvl_start
    rep = plan.repeating
    rs = rep.svc
    nrep = len(rs)
    n = len(jobs)
    sols = [sol for _, sol, _ in jobs]

    # ---- truncation level: lockstep tail walk ---------------------------
    # Every slice follows the rule tail(K) = pi_b R^{K-c+1} (I - R)^{-1} e
    # and freezes as its threshold is met.  The powers pi_b R^j generated
    # along the way are exactly the entry-flow vectors the repeating
    # levels need, so they are kept.
    Rs = np.stack([np.asarray(s.R, dtype=np.float64) for s in sols])
    d = Rs.shape[1]
    pib = np.stack([np.asarray(s.boundary_pi[s.boundary_levels],
                               dtype=np.float64) for s in sols])
    w = np.linalg.solve(np.eye(d)[None] - Rs, np.ones((n, d, 1)))[..., 0]
    cur = np.matmul(pib[:, None, :], Rs)
    powers = [cur[:, 0, :]]                  # powers[j] = pi_b R^{j+1}
    cur = np.matmul(cur, Rs)
    powers.append(cur[:, 0, :])
    K = np.full(n, c + 1, dtype=np.intp)
    tail = np.einsum("nd,nd->n", powers[-1], w)
    done = ~((K < max_levels) & (tail > truncation_mass))
    while not done.all():
        # Speculative block of steps: the powers are the same
        # sequential matmuls (bitwise), the tails are evaluated in one
        # stacked einsum, and each live slice stops at the first step
        # whose level K + s reaches the cap or whose tail is within the
        # threshold.  Powers past the stopping step are computed but
        # never used (downstream slices by depth, not by count).
        block = []
        for _ in range(_BLOCK):
            cur = np.matmul(cur, Rs)
            block.append(cur[:, 0, :])
        tails = np.einsum("nbd,nd->nb", np.stack(block, axis=1), w)
        powers.extend(block)
        stop = ~(((K[:, None] + _STEPS) < max_levels)
                 & (tails > truncation_mass))
        stopped = stop.any(axis=1)
        live = ~done
        K[live] += np.where(stopped, stop.argmax(axis=1) + 1, _BLOCK)[live]
        done[live] = stopped[live]
    P = np.stack(powers, axis=1) if rep.wait.size else None

    by_depth: dict[int, list[int]] = {}
    for i in range(n):
        by_depth.setdefault(int(K[i]), []).append(i)

    def indices(lvl: int) -> _LevelIndices:
        return rep if lvl > c else plan.boundary[lvl - lvl_start]

    out: list[PhaseType | None] = [None] * n
    for Kv, idxs in by_depth.items():
        ns = len(idxs)
        offsets: dict[int, int] = {}
        pos = 0
        for lvl in range(lvl_start, Kv + 1):
            offsets[lvl] = pos
            pos += len(indices(lvl).svc)
        order = pos
        if order == 0:
            raise ValidationError(
                "no service states found; is m_quantum zero?")
        nlev = Kv - c                        # repeating levels, >= 1
        if c < lvl_start or offsets[c + 1] - nrep != offsets[c]:
            # The down band of level c+1 must land exactly on level c's
            # block: level c shares the repeating phase layout.
            raise ValidationError(
                "repeating levels do not share level c's phase layout")

        T = np.zeros((ns, order, order))
        absorb = np.zeros((ns, order))
        xi = np.zeros((ns, order))

        # ---- boundary levels: per-level slices --------------------------
        # Each level's blocks are stacked across the subgroup so one
        # fancy gather (pure element copies) replaces the per-job
        # ``sub_dense`` calls.  A level whose blocks are not all dense
        # gathers per job.  Local blocks keep their diagonal entries:
        # they land on T's diagonal, which is rebuilt from the row sums
        # below.
        procs = [jobs[gi][0] for gi in idxs]
        for lvl in range(lvl_start, c + 1):
            idx = indices(lvl)
            rows = idx.svc
            nr = len(rows)
            base = offsets[lvl]
            blocks = [pr.block(lvl, lvl) for pr in procs]
            dense = all(isinstance(b, np.ndarray) for b in blocks)
            loc = np.stack(blocks) if dense else None
            if dense:
                T[:, base:base + nr, base:base + nr] += \
                    loc[:, rows[:, None], rows[None, :]]
                if idx.wait.size:
                    absorb[:, base:base + nr] += \
                        loc[:, rows[:, None], idx.wait[None, :]].sum(axis=2)
            else:
                for si, b in enumerate(blocks):
                    T[si, base:base + nr, base:base + nr] += \
                        sub_dense(b, rows, rows)
                    if idx.wait.size:
                        absorb[si, base:base + nr] += \
                            sub_dense(b, rows, idx.wait).sum(axis=1)
            up_rows = indices(lvl + 1).svc
            o1 = offsets[lvl + 1]
            ubs = [pr.block(lvl, lvl + 1) for pr in procs]
            if all(isinstance(b, np.ndarray) for b in ubs):
                T[:, base:base + nr, o1:o1 + len(up_rows)] += \
                    np.stack(ubs)[:, rows[:, None], up_rows[None, :]]
            else:
                for si, b in enumerate(ubs):
                    T[si, base:base + nr, o1:o1 + len(up_rows)] += \
                        sub_dense(b, rows, up_rows)
            if lvl > lvl_start:
                dn = indices(lvl - 1)
                o0 = offsets[lvl - 1]
                dbs = [pr.block(lvl, lvl - 1) for pr in procs]
                if all(isinstance(b, np.ndarray) for b in dbs):
                    dstack = np.stack(dbs)
                    T[:, base:base + nr, o0:o0 + len(dn.svc)] += \
                        dstack[:, rows[:, None], dn.svc[None, :]]
                    if dn.wait.size:
                        absorb[:, base:base + nr] += \
                            dstack[:, rows[:, None], dn.wait[None, :]].sum(axis=2)
                else:
                    for si, b in enumerate(dbs):
                        T[si, base:base + nr, o0:o0 + len(dn.svc)] += \
                            sub_dense(b, rows, dn.svc)
                        if dn.wait.size:
                            absorb[si, base:base + nr] += \
                                sub_dense(b, rows, dn.wait).sum(axis=1)
            elif lvl == 1 and lvl_start == 1:
                # Switch policy: the whole down block from level 1 lands
                # in level-0 waiting states — pure absorption.
                dbs = [pr.block(1, 0) for pr in procs]
                if all(isinstance(b, np.ndarray) for b in dbs):
                    absorb[:, base:base + nr] += \
                        np.stack(dbs).sum(axis=2)[:, rows]
                else:
                    for si, b in enumerate(dbs):
                        absorb[si, base:base + nr] += row_sums(b)[rows]
            if idx.wait.size:
                # Entry flows of the boundary level: waiting -> service.
                pis = np.stack([sols[gi].level(lvl) for gi in idxs])
                if dense:
                    wsub = loc[:, idx.wait[:, None], idx.svc[None, :]]
                else:
                    wsub = np.stack([sub_dense(b, idx.wait, idx.svc)
                                     for b in blocks])
                flow = np.matmul(pis[:, None, idx.wait], wsub)[:, 0, :]
                xi[:, offsets[lvl]:offsets[lvl] + len(idx.svc)] += flow

        # ---- repeating levels: three strided band copies ----------------
        rep_local = np.empty((ns, nrep, nrep))
        rep_up = np.empty((ns, nrep, nrep))
        rep_down = np.empty((ns, nrep, nrep))
        labs = np.zeros((ns, nrep))
        dabs = np.zeros((ns, nrep))
        Wm = np.empty((ns, rep.wait.size, nrep))
        for si, pr in enumerate(procs):
            A0, A1, A2 = pr.A0, pr.A1, pr.A2
            rep_local[si] = A1[np.ix_(rs, rs)]
            rep_up[si] = A0[np.ix_(rs, rs)]
            rep_down[si] = A2[np.ix_(rs, rs)]
            if rep.wait.size:
                labs[si] = A1[np.ix_(rs, rep.wait)].sum(axis=1)
                dabs[si] = A2[np.ix_(rs, rep.wait)].sum(axis=1)
                Wm[si] = A1[np.ix_(rep.wait, rs)]
        # The three bands are diagonal block runs, so a strided view
        # places all K - c levels of every job with one block copy each
        # (every location is written exactly once onto zeros).
        off0 = offsets[c + 1]
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
            # collected powers, pushed through one stacked matmul.
            flows = np.matmul(P[idxs][:, :nlev][:, :, rep.wait], Wm)
            xi[:, off0:off0 + nlev * nrep] += flows.reshape(ns, nlev * nrep)

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
            out[gi] = PhaseType.from_trusted(xi[si] / total, T[si])
    return out
