"""Lockstep batched sweep engine: many grid points, stacked BLAS.

:func:`repro.workloads.sweeps.sweep` solves grid points one at a time;
profiling shows the per-point cost is dominated by Python call
overhead around small dense BLAS calls — exactly the workload shape
that batching fixes.  This engine advances *all pending points of a
sweep chunk through the same fixed-point iteration simultaneously*:

* The iteration itself is :func:`repro.core.fixed_point.run_lockstep`,
  the same driver a single solve runs (bootstrap, per-class
  saturation, Aitken windows, identical convergence tests), so a
  batched point's trajectory is the serial trajectory.
* This module supplies the driver's stacked :data:`STACKED` stage
  set: the per-class linear algebra of one lockstep iteration — drift
  tests, warm Newton refinements, logarithmic reductions, dense
  boundary solves, effective-quantum extraction — is gathered across
  points, grouped by matrix shape, and dispatched as
  ``(njobs, m, m)`` stacked kernels (:mod:`repro.kernels.batched`).
  Points converge and drop out of the batch individually; any
  per-slice failure falls back to the serial resilience chain for just
  that point.

Continuation
------------
Chunks are anchored to the *sorted unique grid*: chunk ``k`` covers
sorted values ``[k*batch, (k+1)*batch)``.  The chunk head (its lowest
value) solves cold and its converged per-class ``R`` matrices seed the
``R0`` warm starts of every other point in the chunk via the existing
``solve_R(..., R0=)`` hook.  Seeding ``R`` (solved to ``1e-12``) does
not move the fixed point's ``1e-5`` stopping test, so batched results
match cold per-point solves to well under ``1e-8``; vacation-level
continuation would shift the stopping iterate and is deliberately not
done.  Head seeds are journaled (``cont`` field on the head's point
record), so a killed-and-resumed batched sweep reseeds pending points
with the exact numbers the interrupted run used — chunk anchoring plus
composition-independent kernels make the resume byte-identical.  The
chunk-local lineage (a chunk never seeds from outside itself) is what
lets the service daemon shard a batched sweep by chunk without
changing any point's bytes.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro.core.fixed_point import PointState, StageSet, run_lockstep
from repro.core.model import GangSchedulingModel
from repro.errors import UnstableSystemError, ValidationError
from repro.kernels import to_dense
from repro.kernels import batched as bk
from repro.kernels.backend import select_backend
from repro.obs import metrics
from repro.obs.trace import span
from repro.phasetype import PhaseType
from repro.pipeline import stages
from repro.pipeline.extract import _off_diag, extract_effective_quantum
from repro.kernels.sparse import row_sums, sub_dense
from repro.qbd.boundary import solve_boundary
from repro.qbd.stability import DriftReport, drift
from repro.qbd.stationary import QBDStationaryDistribution
from repro.resilience.faults import maybe_fault

__all__ = ["plan_chunks", "run_batched_pending"]


def plan_chunks(values, batch: int) -> list[list[float]]:
    """Anchored continuation chunks of a grid.

    Chunks partition the *sorted unique* values into runs of ``batch``
    adjacent points.  The anchoring is positional, so the chunk layout
    of a grid never depends on which points are already solved — the
    invariant behind byte-identical resume and service sharding.
    """
    order = sorted({float(v) for v in values})
    batch = max(1, int(batch))
    return [order[i:i + batch] for i in range(0, len(order), batch)]


class _Task(PointState):
    """A sweep grid point in the lockstep driver, maybe warm-seeded."""

    def __init__(self, value: float, model: GangSchedulingModel, opts,
                 seed: list | None):
        super().__init__(model.config, opts)
        self.value = value
        self.model = model
        self.warm = False
        for p, R in enumerate(seed or ()):
            if R is not None and p < len(self.ctx.classes):
                self.ctx.classes[p].R = np.asarray(R, dtype=np.float64)
                self.warm = True


class _Job:
    """One (task, class) solve inside a lockstep iteration."""

    __slots__ = ("task", "p", "art", "report", "R", "done")

    def __init__(self, task: _Task, p: int):
        self.task = task
        self.p = p
        self.art = task.ctx.classes[p]
        self.report = None
        self.R = None
        self.done = False


def _solve_all_batched(tasks: list[_Task]) -> None:
    """Stacked twin of :func:`repro.pipeline.stages.solve_points`.

    Assembles every (task, class) QBD, then runs drift, ``R`` and
    boundary solves grouped by shape as stacked kernels.  Per-class
    ``UnstableSystemError`` marks the class saturated (exactly the
    serial guard); any other per-task exception fails that task only.
    """
    if not tasks:
        return
    jobs: list[_Job] = []
    for t in tasks:
        try:
            for p in range(t.L):
                stages.assemble_class(t.ctx, p, t.vacations[p])
                jobs.append(_Job(t, p))
        except Exception as exc:  # noqa: BLE001 - per-task isolation
            t.fail(exc)
    jobs = [j for j in jobs if not j.task.finished]

    # Fault sites fire per (task, class) in deterministic order, with
    # the serial semantics: an UnstableSystemError saturates the class,
    # anything else fails the point.
    for j in jobs:
        if j.task.finished:
            continue
        try:
            maybe_fault("fixed_point.class_solve", key=j.p)
            maybe_fault("qbd.solve")
        except UnstableSystemError:
            _saturate(j)
        except Exception as exc:  # noqa: BLE001 - per-task isolation
            j.task.fail(exc)
    jobs = [j for j in jobs if not j.task.finished and not j.done]

    _stage_stability(tasks, jobs)
    jobs = [j for j in jobs if not j.task.finished and not j.done]
    _stage_rsolve(tasks, jobs)
    jobs = [j for j in jobs if not j.task.finished and not j.done]
    _stage_boundary(tasks, jobs)

    for t in tasks:
        if not t.finished:
            arts = t.ctx.classes
            t.state = ([a.space for a in arts], [a.process for a in arts],
                       [a.solution for a in arts],
                       [a.saturated for a in arts])


def _saturate(j: _Job) -> None:
    j.done = True
    j.art.saturated = True
    j.art.solution = None


def _charge(tasks: list[_Task], stage: str, seconds: float) -> None:
    """Split a batched stage's wall time across its live tasks."""
    live = [t for t in tasks if not t.finished]
    if not live:
        return
    share = seconds / len(live)
    for t in live:
        t.ctx.timings.add(stage, share)


def _dense_blocks(j: _Job):
    p = j.art.process
    return (to_dense(p.A0), to_dense(p.A1), to_dense(p.A2))


def _stage_stability(tasks: list[_Task], jobs: list[_Job]) -> None:
    t0 = time.perf_counter()
    groups: dict[int, list[_Job]] = {}
    for j in jobs:
        groups.setdefault(j.art.process.phase_dim, []).append(j)
    for group in groups.values():
        blocks = [_dense_blocks(j) for j in group]
        A0 = bk.stack_blocks([b[0] for b in blocks])
        A1 = bk.stack_blocks([b[1] for b in blocks])
        A2 = bk.stack_blocks([b[2] for b in blocks])
        up, down, y, ok = bk.batched_drift(A0, A1, A2)
        for i, j in enumerate(group):
            if not ok[i]:
                # Reducible chain (or numerical trouble): the serial
                # path owns the proper error.
                try:
                    j.report = drift(*blocks[i])
                except Exception as exc:  # noqa: BLE001 - per-task
                    j.task.fail(exc)
                    continue
            else:
                j.report = DriftReport(up=float(up[i]), down=float(down[i]),
                                       phase_stationary=y[i])
            if not j.report.stable:
                _saturate(j)
    _charge(tasks, "stability", time.perf_counter() - t0)


def _stage_rsolve(tasks: list[_Task], jobs: list[_Job]) -> None:
    """Cold solves are batched; warm solves follow the serial refine.

    A job with a warm ``R`` from the previous fixed-point iteration is
    what the serial path hands to its Newton refinement — whose route
    (dense Kronecker solve vs matrix-free GMRES) depends on the backend
    policy.  Replicating that per job keeps the batched trajectory on
    the serial one bit for bit; near saturation the output is sensitive
    enough that even a ``1e-12`` difference in a converged ``R`` shows
    up at ``1e-8`` in the response times.  Cold solves (the first
    iterations) run the stacked logarithmic reduction, which mirrors
    the serial cold recurrence exactly.
    """
    t0 = time.perf_counter()
    groups: dict[int, list[_Job]] = {}
    serial: list[_Job] = []
    for j in jobs:
        opts = j.task.opts
        if opts.rmatrix_method != "logreduction":
            serial.append(j)
            continue
        d = j.art.process.phase_dim
        prev = j.art.R
        if prev is not None and (prev.shape != (d, d)
                                 or not np.all(np.isfinite(prev))):
            prev = None  # serial solve_R silently discards such seeds
        if prev is not None and select_backend(opts.backend,
                                               d * d) == "sparse":
            # Serial refines this seed matrix-free (GMRES); there is no
            # bitwise batched twin, so the serial path keeps the bits.
            serial.append(j)
            continue
        groups.setdefault(d, []).append((j, prev))
    for group in groups.values():
        blocks = [_dense_blocks(j) for j, _ in group]
        A0 = bk.stack_blocks([b[0] for b in blocks])
        A1 = bk.stack_blocks([b[1] for b in blocks])
        A2 = bk.stack_blocks([b[2] for b in blocks])
        R0 = np.zeros_like(A1)
        seeded = np.zeros(len(group), dtype=bool)
        for i, (j, prev) in enumerate(group):
            if prev is not None:
                R0[i] = prev
                seeded[i] = True
        R, refined, ok = bk.batched_solve_R(A0, A1, A2, R0=R0, seeded=seeded)
        n_ref = int((ok & refined).sum())
        n_cold = int((ok & ~refined).sum())
        if n_ref:
            metrics.inc("rsolve.solves", n_ref, method="logreduction",
                        refined=True, batched=True)
        if n_cold:
            metrics.inc("rsolve.solves", n_cold, method="logreduction",
                        refined=False, batched=True)
        for i, (j, _) in enumerate(group):
            if ok[i]:
                j.R = R[i]
            else:
                serial.append(j)
    for j in serial:
        try:
            j.R, _ = stages.solve_rmatrix(j.art.process, j.task.opts,
                                          j.art.R)
        except UnstableSystemError:
            _saturate(j)
        except Exception as exc:  # noqa: BLE001 - per-task isolation
            j.task.fail(exc)
    _charge(tasks, "rsolve", time.perf_counter() - t0)


def _stage_boundary(tasks: list[_Task], jobs: list[_Job]) -> None:
    t0 = time.perf_counter()
    groups: dict[tuple, list[_Job]] = {}
    serial: list[_Job] = []
    for j in jobs:
        if j.task.finished or j.done:
            continue
        process = j.art.process
        dims = tuple(process.boundary_dims())
        n = int(sum(dims))
        if process.boundary_levels >= 1 and select_backend(
                j.task.opts.backend, n, site="boundary") == "sparse":
            serial.append(j)  # block-tridiagonal kernel, per point
        else:
            groups.setdefault((dims, process.phase_dim), []).append(j)
    for (dims, d), group in groups.items():
        offsets = np.concatenate([[0], np.cumsum(dims)]).astype(int)
        N = int(offsets[-1])
        b = len(dims) - 1
        M = np.zeros((len(group), N, N))
        A2 = np.empty((len(group), d, d))
        R = np.empty((len(group), d, d))
        for i, j in enumerate(group):
            process = j.art.process
            for col in range(b + 1):
                cols = slice(offsets[col], offsets[col + 1])
                for row in (col - 1, col, col + 1):
                    if row < 0 or row > b:
                        continue
                    blk = process.boundary[row][col]
                    if blk is None:
                        continue
                    M[i, offsets[row]:offsets[row + 1], cols] += to_dense(blk)
            A2[i] = to_dense(process.A2)
            R[i] = j.R
        x, ok = bk.batched_boundary_solve(M, A2, R, offsets, b)
        n_ok = int(ok.sum())
        if n_ok:
            metrics.inc("boundary.solves", n_ok, path="batched-dense")
        for i, j in enumerate(group):
            if ok[i]:
                pi = [x[i, offsets[k]:offsets[k + 1]].copy()
                      for k in range(b + 1)]
                _finish_boundary(j, pi)
            else:
                serial.append(j)
    for j in serial:
        try:
            pi = solve_boundary(j.art.process, j.R,
                                backend=j.task.opts.backend)
            _finish_boundary(j, pi)
        except UnstableSystemError:
            _saturate(j)
        except Exception as exc:  # noqa: BLE001 - per-task isolation
            j.task.fail(exc)
    _charge(tasks, "boundary", time.perf_counter() - t0)


def _finish_boundary(j: _Job, pi) -> None:
    j.done = True
    j.art.saturated = False
    j.art.solution = QBDStationaryDistribution(
        boundary_pi=tuple(pi), R=j.R, drift_report=j.report,
        solve_report=None)
    j.art.R = j.R


def _batched_extract(tasks: list[_Task]):
    """Stacked twin of :func:`repro.pipeline.stages.extract_points`.

    Batched mirror of
    :func:`repro.pipeline.extract.extract_effective_quantum`: jobs are
    grouped by state space, the truncation tail-walk runs lockstep
    across the group, and within each truncation-depth subgroup the
    repeating-level band placement and the ``pi R^n`` entry-flow
    recurrence are stacked across jobs.  The boundary-level code is the
    serial code verbatim per job (it is a handful of levels).  Any
    group-level surprise falls back to the serial extractor per job;
    per-job failures fail only that task.

    Returns the driver's ``raw(task, p)`` lookup over the extracted
    quanta.
    """
    t0 = time.perf_counter()
    raws: dict[tuple[int, int], PhaseType] = {}
    groups: dict = {}
    for t in tasks:
        saturated = t.state[3]
        for p in range(t.L):
            if not saturated[p]:
                art = t.ctx.classes[p]
                groups.setdefault(art.space, []).append((t, p, art))
    for space, group in groups.items():
        try:
            _extract_group(space, group, raws)
        except Exception:  # noqa: BLE001 - serial path owns the error
            for t, p, art in group:
                if t.finished or (id(t), p) in raws:
                    continue
                try:
                    raws[(id(t), p)] = extract_effective_quantum(
                        art.space, art.process, art.solution, art.vacation,
                        truncation_mass=t.opts.truncation_mass,
                        max_levels=t.opts.max_truncation_levels,
                        workspace=art.extraction)
                except Exception as exc:  # noqa: BLE001 - per-task
                    t.fail(exc)
    _charge(tasks, "extract", time.perf_counter() - t0)
    return lambda t, p: raws[(id(t), p)]


def _extract_group(space, group: list, raws: dict) -> None:
    """Extract one space-group of jobs (see :func:`_batched_extract`)."""
    plan = group[0][2].extraction.plan(space)
    c = space.boundary_levels
    lvl_start = plan.lvl_start
    rep = plan.repeating
    rs = rep.svc
    nrep = len(rs)
    n = len(group)
    sols = [art.solution for _, _, art in group]

    Rs = np.stack([np.asarray(s.R, dtype=np.float64) for s in sols])
    d = Rs.shape[1]
    pib = np.stack([np.asarray(s.boundary_pi[s.boundary_levels],
                               dtype=np.float64) for s in sols])
    mass = np.array([t.opts.truncation_mass for t, _, _ in group])
    max_levels = np.array([t.opts.max_truncation_levels
                           for t, _, _ in group], dtype=np.intp)

    # Lockstep truncation tail-walk: every slice follows the serial
    # rule (tail(K) = pi_b R^{K-c+1} (I - R)^{-1} e) and freezes as its
    # own threshold is met.  The powers pi_b R^j generated along the
    # way are exactly the entry-flow vectors the repeating levels need,
    # so they are kept.
    w = np.linalg.solve(np.eye(d)[None] - Rs, np.ones((n, d, 1)))[..., 0]
    cur = np.matmul(pib[:, None, :], Rs)
    powers = [cur[:, 0, :]]                  # powers[j] = pi_b R^{j+1}
    cur = np.matmul(cur, Rs)
    powers.append(cur[:, 0, :])
    K = np.full(n, c + 1, dtype=np.intp)
    tail = np.einsum("nd,nd->n", powers[-1], w)
    done = ~((K < max_levels) & (tail > mass))
    while not done.all():
        # Speculative block of 8 steps: the powers are the same
        # sequential matmuls (bitwise), the tails are evaluated in one
        # stacked einsum, and the per-step freeze rule replays in order
        # below.  Powers past the stopping step are computed but never
        # used (downstream slices by depth, not by count).
        block = []
        for _ in range(8):
            cur = np.matmul(cur, Rs)
            block.append(cur[:, 0, :])
        tails = np.einsum("nbd,nd->nb", np.stack(block, axis=1), w)
        powers.extend(block)
        for s in range(8):
            K[~done] += 1
            done |= ~((K < max_levels) & (tails[:, s] > mass))
            if done.all():
                break
    P = np.stack(powers, axis=1) if rep.wait.size else None

    by_depth: dict[int, list[int]] = {}
    for i in range(n):
        by_depth.setdefault(int(K[i]), []).append(i)

    def indices(lvl: int):
        return rep if lvl > c else plan.boundary[lvl - lvl_start]

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
        nlev = Kv - c
        if nlev > 0 and (c < lvl_start
                         or offsets[c + 1] - nrep != offsets[c]):
            # The down band of level c+1 must land exactly on level c's
            # block; anything else is a layout the serial extractor
            # should handle (and error on) itself.
            raise RuntimeError("repeating layout mismatch")

        T = np.zeros((ns, order, order))
        absorb = np.zeros((ns, order))
        xi = np.zeros((ns, order))
        rep_local = np.empty((ns, nrep, nrep))
        rep_up = np.empty((ns, nrep, nrep))
        rep_down = np.empty((ns, nrep, nrep))
        labs = np.zeros((ns, nrep))
        dabs = np.zeros((ns, nrep))
        Wm = np.empty((ns, rep.wait.size, nrep))

        # Boundary levels: the serial per-level slice adds, but each
        # level's blocks are stacked across the subgroup so one fancy
        # gather (pure element copies — bitwise) replaces the per-job
        # ``sub_dense`` calls.  A level whose blocks are not all dense
        # falls back to the per-job serial gathers for that level.
        procs = [group[gi][2].process for gi in idxs]
        for lvl in range(lvl_start, c + 1):
            idx = indices(lvl)
            rows = idx.svc
            nr = len(rows)
            base = offsets[lvl]
            blocks = [pr.block(lvl, lvl) for pr in procs]
            dense = all(isinstance(b, np.ndarray) for b in blocks)
            loc = np.stack(blocks) if dense else None
            if dense:
                sub = loc[:, rows[:, None], rows[None, :]]
                sub[:, np.arange(nr), np.arange(nr)] = 0.0
                T[:, base:base + nr, base:base + nr] += sub
                if idx.wait.size:
                    absorb[:, base:base + nr] += \
                        loc[:, rows[:, None], idx.wait[None, :]].sum(axis=2)
            else:
                for si, b in enumerate(blocks):
                    T[si, base:base + nr, base:base + nr] += \
                        _off_diag(sub_dense(b, rows, rows))
                    if idx.wait.size:
                        absorb[si, base:base + nr] += \
                            sub_dense(b, rows, idx.wait).sum(axis=1)
            if lvl < Kv and lvl < c + 1:
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
                dbs = [pr.block(1, 0) for pr in procs]
                if all(isinstance(b, np.ndarray) for b in dbs):
                    absorb[:, base:base + nr] += \
                        np.stack(dbs).sum(axis=2)[:, rows]
                else:
                    for si, b in enumerate(dbs):
                        absorb[si, base:base + nr] += row_sums(b)[rows]
            if idx.wait.size:
                pis = np.stack([sols[gi].level(lvl) for gi in idxs])
                if dense:
                    wsub = loc[:, idx.wait[:, None], idx.svc[None, :]]
                else:
                    wsub = np.stack([sub_dense(b, idx.wait, idx.svc)
                                     for b in blocks])
                flow = np.matmul(pis[:, None, idx.wait], wsub)[:, 0, :]
                xi[:, offsets[lvl]:offsets[lvl] + len(idx.svc)] += flow

        if nlev > 0:
            for si, gi in enumerate(idxs):
                process = group[gi][2].process
                A0, A1, A2 = process.A0, process.A1, process.A2
                rep_local[si] = _off_diag(A1[np.ix_(rs, rs)])
                rep_up[si] = A0[np.ix_(rs, rs)]
                rep_down[si] = A2[np.ix_(rs, rs)]
                if rep.wait.size:
                    labs[si] = A1[np.ix_(rs, rep.wait)].sum(axis=1)
                    dabs[si] = A2[np.ix_(rs, rep.wait)].sum(axis=1)
                    Wm[si] = A1[np.ix_(rep.wait, rs)]

        if nlev > 0:
            # Repeating levels: the three bands are diagonal block
            # runs, so a strided view places all K - c levels of every
            # job with three block copies (values identical to the
            # serial per-level slice adds — each location is written
            # exactly once onto zeros).
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
            dnview = np.lib.stride_tricks.as_strided(
                T[:, off0:, off0 - nrep:], shape=(ns, nlev, nrep, nrep),
                strides=(s0, lstep, s1, s2))
            dnview += rep_down[:, None]
            absorb[:, off0:off0 + nlev * nrep] += np.tile(labs + dabs,
                                                          (1, nlev))

        diag = np.arange(order)
        T[:, diag, diag] = 0.0
        T[:, diag, diag] = -(T.sum(axis=2) + absorb)

        if nlev > 0 and rep.wait.size:
            # Entry flows of the repeating levels: levels c+1..K need
            # pi_b R^1 .. R^{nlev} restricted to waiting phases — the
            # collected powers, pushed through one stacked matmul.
            flows = np.matmul(P[idxs][:, :nlev][:, :, rep.wait], Wm)
            xi[:, off0:off0 + nlev * nrep] += flows.reshape(
                ns, nlev * nrep)

        for si, gi in enumerate(idxs):
            t, p, art = group[gi]
            atom_flow = 0.0
            if lvl_start == 1:
                pi0 = sols[gi].level(0)
                v0 = art.vacation.exit_rates
                atom_flow = float(
                    (pi0.reshape(-1, space.m_vacation) @ v0).sum())
            total = xi[si].sum() + atom_flow
            if total <= 0:
                t.fail(ValidationError(
                    "no probability flow into quantum starts; the chain "
                    "never serves"))
                continue
            raws[(id(t), p)] = PhaseType.from_trusted(xi[si] / total, T[si])


#: The driver's stacked stage set.
STACKED = StageSet(_solve_all_batched, _batched_extract)


def _final_rs(t: _Task) -> list:
    """The converged per-class ``R`` matrices (continuation seeds)."""
    out = []
    for p in range(t.L):
        R = t.ctx.classes[p].R
        out.append(None if R is None else np.asarray(R, dtype=np.float64))
    return out


def _cont_payload(rs: list) -> list:
    return [None if R is None else R.tolist() for R in rs]


def _cont_from_record(rec: dict | None) -> list | None:
    if not rec:
        return None
    cont = rec.get("cont")
    if not cont:
        return None
    try:
        return [None if R is None else np.asarray(R, dtype=np.float64)
                for R in cont]
    except Exception:  # noqa: BLE001 - journal written by another engine
        return None


def run_batched_pending(*, grid, pending, batch: int,
                        heavy_traffic_only: bool,
                        model_kwargs: dict | None,
                        solve_kwargs: dict | None,
                        skip_errors: bool,
                        finish, done_records: dict) -> None:
    """Solve a sweep's pending points through the batched engine.

    Parameters mirror the serial loop of
    :func:`repro.workloads.sweeps.sweep`; ``finish(slot, point, extra)``
    journals a completed point (``extra`` carries the continuation
    seeds on chunk-head records) and ``done_records`` maps
    already-journaled values to their raw records (the source of seeds
    on resume).
    """
    from repro.workloads.sweeps import SweepPoint, _error_point

    model_kwargs = dict(model_kwargs or {})
    solve_kwargs = dict(solve_kwargs or {})
    max_iterations = int(solve_kwargs.get("max_iterations", 200))
    tol = float(solve_kwargs.get("tol", 1e-5))

    by_value: dict[float, list[tuple[int, object]]] = {}
    for slot, v, config in pending:
        by_value.setdefault(float(v), []).append((slot, config))

    def make_task(v: float, seed) -> _Task:
        model = GangSchedulingModel(by_value[v][0][1], **model_kwargs)
        opts = model._options(max_iterations, tol, heavy_traffic_only)
        return _Task(v, model, opts, seed)

    def emit(t: _Task, extra: dict | None) -> BaseException | None:
        """Turn a finished task into points for all its slots."""
        slots = by_value[t.value]
        if t.error is not None:
            if not skip_errors:
                return t.error
            point = dataclasses.replace(
                _error_point(t.value, t.config.class_names, t.error),
                solve_seconds=t.elapsed, warm=t.warm)
        else:
            solved = t.model._package(t.result)
            point = SweepPoint(
                value=t.value,
                mean_jobs=tuple(c.mean_jobs for c in solved.classes),
                mean_response_time=tuple(c.mean_response_time
                                         for c in solved.classes),
                iterations=solved.iterations,
                converged=solved.converged,
                solve_seconds=t.elapsed,
                warm=t.warm,
            )
        metrics.inc("sweep.points", len(slots),
                    start="warm" if t.warm else "cold")
        metrics.observe("sweep.point.seconds", t.elapsed)
        for slot, _ in slots:
            finish(slot, point, extra)
            extra = None  # journal head payloads once, not per duplicate
        return None

    abort: BaseException | None = None
    for ci, chunk in enumerate(plan_chunks(grid, batch)):
        todo = [v for v in chunk if v in by_value
                and done_records.get(v) is None]
        if not todo:
            continue

        # Fire the sweep-level fault site for every value about to be
        # solved, in ascending order (the serial driver's ordering).
        solvable = []
        for v in todo:
            try:
                maybe_fault("sweeps.point", key=v)
            except Exception as exc:  # noqa: BLE001 - per point
                if not skip_errors:
                    raise
                point = _error_point(v, by_value[v][0][1].class_names, exc)
                for slot, _ in by_value[v]:
                    finish(slot, point, None)
                continue
            solvable.append(v)
        if not solvable:
            continue

        head_v = chunk[0]
        head_rs = _cont_from_record(done_records.get(head_v))
        with span("sweep.chunk", index=ci, size=len(solvable)):
            if head_v in solvable:
                head_task = make_task(head_v, None)
                run_lockstep([head_task], STACKED)
                extra = None
                if head_task.error is None:
                    head_rs = _final_rs(head_task)
                    if len(chunk) > 1:
                        extra = {"cont": _cont_payload(head_rs)}
                abort = emit(head_task, extra)
                if abort is not None:
                    break
            tail = [make_task(v, head_rs) for v in solvable if v != head_v]
            if tail:
                run_lockstep(tail, STACKED)
                for t in tail:
                    abort = abort or emit(t, None)
        if abort is not None:
            break
    if abort is not None:
        raise abort
