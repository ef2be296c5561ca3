"""Analytic gang-scheduling model with batch arrivals.

Implements the extension the paper claims in Section 3: *"our
mathematical analysis is easily extended to handle batch arrivals
and/or departures as long as the batch sizes are bounded"*.  Each
class-``p`` arrival epoch brings ``k`` jobs with probability
``q_p(k)``, ``k <= K_p``; the per-class level process then jumps up by
``1..K_p``, making it *banded* rather than tridiagonal.  Grouping
``K_p`` levels into super-levels (:mod:`repro.qbd.banded`) restores
QBD form, and the whole Theorem 4.2/4.3 pipeline — heavy-traffic
vacations, matrix-geometric solve, effective-quantum fixed point —
carries over.

Jobs of one batch that find free partitions take them immediately
(drawing i.i.d. initial service phases — a multinomial over the
service PH's entry vector); the rest join the FCFS queue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import SystemConfig
from repro.core.generator import _BlockBuilder, class_state_space
from repro.core.statespace import ClassStateSpace
from repro.utils.combinatorics import multinomial_compositions
from repro.core.vacation import (
    fixed_point_vacation,
    heavy_traffic_vacation,
    reduce_order,
)
from repro.errors import ValidationError
from repro.phasetype import PhaseType
from repro.qbd.banded import BandedLevelProcess, ReblockedIndex, reblock
from repro.qbd.stationary import QBDStationaryDistribution, solve_qbd

__all__ = ["BatchGangSchedulingModel", "BatchSolvedClass", "BatchSolvedModel"]


class _BatchBlockBuilder(_BlockBuilder):
    """Extends the per-class block builder with batch up-jumps."""

    def __init__(self, space: ClassStateSpace, arrival, service, quantum,
                 vacation, batch_pmf: np.ndarray):
        super().__init__(space, arrival, service, quantum, vacation)
        self.batch_pmf = batch_pmf

    def up_k(self, i: int, k: int) -> np.ndarray:
        """Arrival of a batch of ``k`` jobs: level ``i`` -> ``i + k``."""
        sp = self.sp
        qk = float(self.batch_pmf[k - 1])
        M = np.zeros((sp.level_dim(i), sp.level_dim(i + k)))
        if qk <= 0.0:
            return M
        enter = min(k, sp.partitions - sp.in_service(i))
        entries = multinomial_compositions(enter, self.aB) if enter > 0 \
            else [(tuple([0] * sp.m_service), 1.0)]
        for a, v, kc in sp.states(i):
            x = sp.index(i, a, v, kc)
            base = self.sA0[a] * qk
            if base <= 0:
                continue
            for a2 in np.nonzero(self.aA)[0]:
                for comp, prob in entries:
                    v2 = tuple(vi + ci for vi, ci in zip(v, comp))
                    y = sp.index(i + k, int(a2), v2, kc)
                    M[x, y] += base * self.aA[a2] * prob
        return M


def _build_banded(space: ClassStateSpace, builder: _BatchBlockBuilder,
                  K: int) -> BandedLevelProcess:
    """Wrap the builder as a cached banded block accessor."""
    c = space.boundary_levels
    cache: dict[tuple[int, int], np.ndarray | None] = {}

    def canonical(i: int, j: int) -> tuple[int, int]:
        # Levels above c+1 are homogeneous: reuse deep reference blocks.
        base = c + K + 2
        if i > base and j - i >= -1:
            shift = i - base
            return (base, j - shift)
        return (i, j)

    def block(i: int, j: int):
        key = canonical(i, j)
        if key not in cache:
            cache[key] = _compute_block(*key)
        return cache[key]

    def _compute_block(i: int, j: int):
        if j == i - 1 and i >= 1:
            return builder.down(i)
        if i < j <= i + K:
            return builder.up_k(i, j - i)
        if j == i:
            off = builder.local(i)
            total = off.sum(axis=1)
            if i >= 1:
                total = total + builder.down(i).sum(axis=1)
            for k in range(1, K + 1):
                total = total + builder.up_k(i, k).sum(axis=1)
            out = off.copy()
            out[np.diag_indices_from(out)] -= total
            return out
        return None

    return BandedLevelProcess(block=block, level_dim=space.level_dim,
                              max_jump=K, regular_from=c)


def _effective_quantum_banded(space: ClassStateSpace,
                              banded: BandedLevelProcess,
                              index: ReblockedIndex,
                              solution: QBDStationaryDistribution,
                              vacation: PhaseType,
                              *, truncation_mass: float = 1e-9,
                              max_levels: int = 300) -> PhaseType:
    """Theorem 4.3's effective quantum, generalized to batch up-jumps."""
    c = space.boundary_levels
    K = banded.max_jump
    # Truncation level by marginal mass.
    Kt = c + K + 2
    while Kt < max_levels:
        if float(index.marginal(solution, Kt).sum()) < truncation_mass:
            break
        Kt += 1

    include_level0 = space.policy == "idle"
    lvl_start = 0 if include_level0 else 1

    def service_locals(level: int) -> np.ndarray:
        return np.asarray([j for j, (a, v, k) in enumerate(space.states(level))
                           if space.is_quantum_phase(k)], dtype=np.intp)

    svc: dict[int, np.ndarray] = {}
    offsets: dict[int, int] = {}
    pos = 0
    rep = None
    for lvl in range(lvl_start, Kt + 1):
        if lvl > c:
            if rep is None:
                rep = service_locals(lvl)
            svc[lvl] = rep
        else:
            svc[lvl] = service_locals(lvl)
        offsets[lvl] = pos
        pos += len(svc[lvl])
    order = pos

    T = np.zeros((order, order))
    absorb = np.zeros(order)
    for lvl in range(lvl_start, Kt + 1):
        rows = svc[lvl]
        base = offsets[lvl]
        sl = slice(base, base + len(rows))
        # Within level.
        local = np.asarray(banded.block(lvl, lvl))
        sub = local[np.ix_(rows, rows)].copy()
        np.fill_diagonal(sub, 0.0)
        T[sl, sl] += sub
        wait_cols = np.setdiff1d(np.arange(local.shape[1]), rows)
        if wait_cols.size:
            absorb[sl] += local[np.ix_(rows, wait_cols)].sum(axis=1)
        # Batch up-jumps (reflected past the truncation edge).
        for k in range(1, K + 1):
            if lvl + k > Kt:
                break
            upb = banded.block(lvl, lvl + k)
            if upb is None:
                continue
            tr = svc[lvl + k]
            T[sl, offsets[lvl + k]:offsets[lvl + k] + len(tr)] += \
                np.asarray(upb)[np.ix_(rows, tr)]
        # Down one level.
        if lvl > lvl_start:
            dnb = np.asarray(banded.block(lvl, lvl - 1))
            dn_rows = svc[lvl - 1]
            T[sl, offsets[lvl - 1]:offsets[lvl - 1] + len(dn_rows)] += \
                dnb[np.ix_(rows, dn_rows)]
            dn_wait = np.setdiff1d(np.arange(dnb.shape[1]), dn_rows)
            if dn_wait.size:
                absorb[sl] += dnb[np.ix_(rows, dn_wait)].sum(axis=1)
        elif lvl == 1 and not include_level0:
            dnb = np.asarray(banded.block(1, 0))
            absorb[sl] += dnb[rows].sum(axis=1)
    T[np.diag_indices(order)] = 0.0
    T[np.diag_indices(order)] = -(T.sum(axis=1) + absorb)

    # Entry vector: vacation completions at level >= 1 (+ skip atom).
    xi = np.zeros(order)
    for lvl in range(lvl_start, Kt + 1):
        pi = index.marginal(solution, lvl)
        local = np.asarray(banded.block(lvl, lvl))
        rows_wait = np.setdiff1d(np.arange(local.shape[0]), svc[lvl])
        if rows_wait.size == 0:
            continue
        xi[offsets[lvl]:offsets[lvl] + len(svc[lvl])] += \
            pi[rows_wait] @ local[np.ix_(rows_wait, svc[lvl])]
    atom_flow = 0.0
    if not include_level0:
        pi0 = index.marginal(solution, 0)
        v0 = vacation.exit_rates
        for j, (a, v, k) in enumerate(space.states(0)):
            atom_flow += pi0[j] * v0[k - space.m_quantum]
    total = xi.sum() + atom_flow
    if total <= 0:
        raise ValidationError("no flow into quantum starts in batch chain")
    return PhaseType.from_trusted(xi / total, T)


@dataclass(frozen=True)
class BatchSolvedClass:
    """Per-class batch-model results."""

    name: str
    mean_jobs: float
    mean_response_time: float
    vacation: PhaseType
    stable: bool


@dataclass(frozen=True)
class BatchSolvedModel:
    """Solution of the batch-arrival gang model."""

    config: SystemConfig
    batch_pmfs: tuple[tuple[float, ...], ...]
    classes: tuple[BatchSolvedClass, ...]
    iterations: int
    converged: bool

    def mean_jobs(self, p: int | None = None) -> float:
        if p is not None:
            return self.classes[p].mean_jobs
        return sum(c.mean_jobs for c in self.classes)


class BatchGangSchedulingModel:
    """Gang scheduling with bounded batch arrivals, solved analytically.

    Parameters
    ----------
    config:
        The usual system description; the per-class arrival PH governs
        batch *epochs*.
    batch_pmfs:
        ``batch_pmfs[p][k-1] = P(batch size = k)`` for class ``p``.

    Examples
    --------
    >>> from repro.core import ClassConfig, SystemConfig
    >>> cfg = SystemConfig(processors=2, classes=(
    ...     ClassConfig.markovian(1, arrival_rate=0.3, service_rate=1.0,
    ...                           quantum_mean=2.0, overhead_mean=0.05),))
    >>> model = BatchGangSchedulingModel(cfg, [[0.5, 0.5]])
    >>> solved = model.solve()
    >>> solved.mean_jobs(0) > 0
    True
    """

    def __init__(self, config: SystemConfig, batch_pmfs, *,
                 reduction: str = "moments2",
                 rmatrix_method: str = "logreduction",
                 truncation_mass: float = 1e-9,
                 max_truncation_levels: int = 300):
        self.config = config
        if len(batch_pmfs) != config.num_classes:
            raise ValidationError(
                f"{len(batch_pmfs)} batch pmfs for {config.num_classes} classes")
        pmfs = []
        for p, pmf in enumerate(batch_pmfs):
            arr = np.asarray(pmf, dtype=np.float64)
            if arr.ndim != 1 or arr.size == 0 or np.any(arr < 0) \
                    or abs(arr.sum() - 1.0) > 1e-9:
                raise ValidationError(
                    f"batch pmf for class {p} must be a probability vector")
            pmfs.append(arr / arr.sum())
        self.batch_pmfs = pmfs
        self._reduction = reduction
        self._rmatrix_method = rmatrix_method
        self._truncation_mass = truncation_mass
        self._max_levels = max_truncation_levels

    def mean_batch_size(self, p: int) -> float:
        pmf = self.batch_pmfs[p]
        return float(np.dot(pmf, np.arange(1, pmf.size + 1)))

    def job_arrival_rate(self, p: int) -> float:
        """Jobs per unit time: epoch rate times mean batch size."""
        return self.config.classes[p].arrival_rate * self.mean_batch_size(p)

    def _solve_class(self, p: int, vacation: PhaseType):
        cls = self.config.classes[p]
        space = class_state_space(
            self.config.partitions(p), cls.arrival, cls.service,
            cls.quantum, vacation, self.config.empty_queue_policy)
        builder = _BatchBlockBuilder(space, cls.arrival, cls.service,
                                     cls.quantum, vacation,
                                     self.batch_pmfs[p])
        banded = _build_banded(space, builder, self.batch_pmfs[p].size)
        process, index = reblock(banded)
        solution = solve_qbd(process, method=self._rmatrix_method)
        return space, banded, index, solution

    def solve(self, *, max_iterations: int = 100,
              tol: float = 1e-5) -> BatchSolvedModel:
        """Heavy-traffic initialization + effective-quantum fixed point."""
        L = self.config.num_classes
        vacations = [heavy_traffic_vacation(self.config, p)
                     for p in range(L)]
        prev = None
        converged = False
        for it in range(max(1, max_iterations)):  # as run_lockstep does
            state = [self._solve_class(p, vacations[p]) for p in range(L)]
            means = np.array([index.mean_level(sol)
                              for (_, _, index, sol) in state])
            if prev is not None and float(np.max(
                    np.abs(means - prev) / np.maximum(1.0, means))) < tol:
                converged = True
                break
            prev = means
            eff = {}
            for p in range(L):
                space, banded, index, sol = state[p]
                raw = _effective_quantum_banded(
                    space, banded, index, sol, vacations[p],
                    truncation_mass=self._truncation_mass,
                    max_levels=self._max_levels)
                eff[p] = reduce_order(raw, self._reduction)
            vacations = [fixed_point_vacation(self.config, p, eff)
                         for p in range(L)]
        classes = []
        for p in range(L):
            _, _, index, sol = state[p]
            n = index.mean_level(sol)
            classes.append(BatchSolvedClass(
                name=self.config.class_names[p],
                mean_jobs=n,
                mean_response_time=n / self.job_arrival_rate(p),
                vacation=vacations[p],
                stable=True,
            ))
        return BatchSolvedModel(
            config=self.config,
            batch_pmfs=tuple(tuple(float(x) for x in pmf)
                             for pmf in self.batch_pmfs),
            classes=tuple(classes),
            iterations=it + 1,
            converged=converged,
        )
