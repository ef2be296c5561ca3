"""The staged per-class solve of n >= 1 points.

:func:`solve_points` runs assemble -> stability -> R -> boundary for
every class of the points it is given; :func:`extract_points` runs
extract -> reduce.  A single solve
(:func:`repro.core.fixed_point.run_fixed_point`) is the n = 1 case; a
sweep chunk passes its points together.  Work that is independent per
class is stacked across the (point, class) jobs:

* the Theorem 4.4 drift tests and the ``R`` solves, grouped by phase
  dimension, run as ``(njobs, m, m)`` kernels
  (:mod:`repro.kernels.batched`, LAPACK called per slice).  A job's
  ``R`` is seeded with its class's previous iterate and accepted by
  :func:`~repro.resilience.fallback.resilient_solve_R`'s own test, so
  each slice carries the bits and the
  :class:`~repro.resilience.fallback.SolveReport` its single solve
  would.  A job whose options the stacked solve does not reproduce,
  whose attempt fails, or whose ``R`` solve has a fault armed goes
  through the resilience chain alone (:func:`solve_rmatrix`);
* effective-quantum extraction stacks the classes of one state space
  (:func:`repro.pipeline.extract.extract_effective_quanta`) and
  reduces each quantum as soon as its stack is built.

Assembly (Kronecker products with a reused workspace,
:func:`repro.pipeline.assembly.build_class_qbd_fast`), the boundary
solve and the order reduction run one class at a time.  The fault
sites fire once per class, in class order, and a failure fails only
its point; a class that turns out unstable is marked saturated.

Every stage runs under an observability span (``stage.assemble``,
``stage.stability``, ``stage.rsolve``, ``stage.boundary``,
``stage.extract``, ``stage.reduce``; the driver adds
``stage.recombine``; see :mod:`repro.obs`).  A per-class span is
tagged with the class index; a stacked span with the ``[point, klass]``
jobs it serves, each of which is charged an equal share.  The spans
feed ``ctx.timings`` from the same clock window they trace, so
``FixedPointResult.timings`` is a view over the trace — and with
tracing disabled they degrade to the bare wall-clock accumulation.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.vacation import reduce_order
from repro.errors import UnstableSystemError
from repro.kernels import batched as bk
from repro.kernels import select_backend, to_dense
from repro.obs import metrics
from repro.obs.trace import SharedTimings, span
from repro.phasetype import PhaseType
from repro.pipeline.assembly import build_class_qbd_fast
from repro.pipeline.context import SolveContext
from repro.pipeline.extract import extract_effective_quanta
from repro.qbd.boundary import solve_boundary
from repro.qbd.rmatrix import solve_R
from repro.qbd.stability import DriftReport, drift
from repro.qbd.stationary import QBDStationaryDistribution
from repro.resilience import faults
from repro.resilience.fallback import (
    AttemptRecord,
    SolveReport,
    resilient_solve_R,
)
from repro.resilience.faults import maybe_fault

__all__ = ["assemble_class", "finish_class", "solve_rmatrix",
           "solve_points", "extract_points"]

#: Tolerance of the per-class ``R`` solves (the ``solve_qbd`` default).
_R_TOL = 1e-12

#: Doubling steps a cold logarithmic reduction may take (the
#: resilience chain's first attempt).
_R_MAX_ITER = 64


class _Job:
    """One (point, class) solve."""

    __slots__ = ("pt", "p", "art", "report", "R", "solve_report")

    def __init__(self, pt, p: int):
        self.pt = pt
        self.p = p
        self.art = pt.ctx.classes[p]
        self.report = None
        self.R = None
        self.solve_report = None


def _live(jobs: list[_Job]) -> list[_Job]:
    return [j for j in jobs if not j.pt.finished and not j.art.saturated]


def _span(stage: str, jobs: list[_Job]):
    """The span of one unit of stacked ``stage`` work serving ``jobs``."""
    return span(f"stage.{stage}",
                timings=SharedTimings([j.pt.ctx.timings for j in jobs]),
                stage=stage, jobs=[[j.pt.index, j.p] for j in jobs])


def _by_dim(jobs: list[_Job]) -> list[list[_Job]]:
    groups: dict[int, list[_Job]] = {}
    for j in jobs:
        groups.setdefault(j.art.process.phase_dim, []).append(j)
    return list(groups.values())


def _stacked(jobs: list[_Job]):
    """``(A0, A1, A2)`` of ``jobs`` as dense ``(njobs, m, m)`` stacks."""
    procs = [j.art.process for j in jobs]
    return tuple(bk.stack_blocks([to_dense(getattr(pr, name))
                                  for pr in procs])
                 for name in ("A0", "A1", "A2"))


def assemble_class(ctx: SolveContext, p: int, vacation: PhaseType) -> None:
    """Build class ``p``'s QBD for the current vacation.

    Capacity ``c_p`` and the arrival/service/quantum distributions come
    from the scheduling policy's cycle view, not the raw config — the
    generator builds whatever cycle the policy granted.
    """
    view = ctx.views[p]
    art = ctx.classes[p]
    with span("stage.assemble", timings=ctx.timings, stage="assemble",
              klass=p):
        process, space, art.assembly = build_class_qbd_fast(
            view.partitions, view.arrival, view.service,
            view.quantum, vacation, policy=ctx.config.empty_queue_policy,
            workspace=art.assembly, backend=ctx.opts.backend,
        )
    art.process, art.space, art.vacation = process, space, vacation
    art.saturated = False


def finish_class(ctx: SolveContext, p: int, report, R,
                 solve_report) -> QBDStationaryDistribution:
    """Boundary solve of class ``p`` given its drift ``report`` and ``R``.

    Stores the class's solution and ``R`` (the next iteration's warm
    seed).
    """
    art = ctx.classes[p]
    with span("stage.boundary", timings=ctx.timings, stage="boundary",
              klass=p):
        pi = solve_boundary(art.process, R, backend=ctx.opts.backend)
    sol = QBDStationaryDistribution(boundary_pi=tuple(pi), R=R,
                                    drift_report=report,
                                    solve_report=solve_report)
    art.solution, art.R = sol, R
    return sol


def solve_rmatrix(process, opts, R0):
    """``(R, report)`` of one QBD, seeded with ``R0``.

    Runs the resilience chain of ``opts`` (``report`` is its
    :class:`~repro.resilience.fallback.SolveReport`), or a fail-fast
    single-method solve with ``report=None`` when it is disabled.
    """
    if opts.resilience is None:
        return solve_R(process.A0, process.A1, process.A2,
                       method=opts.rmatrix_method, tol=_R_TOL, R0=R0,
                       backend=opts.backend), None
    return resilient_solve_R(process.A0, process.A1, process.A2,
                             method=opts.rmatrix_method, tol=_R_TOL,
                             policy=opts.resilience, R0=R0,
                             backend=opts.backend)


def _saturate(job: _Job) -> None:
    job.art.saturated = True
    job.art.solution = None


def _isolated(job: _Job, step, *args) -> None:
    """Run one job's ``step``: instability saturates the class, any
    other error fails the point."""
    try:
        step(*args)
    except UnstableSystemError:
        _saturate(job)
    except Exception as exc:  # noqa: BLE001 - per-point isolation
        job.pt.fail(exc)


def solve_points(points) -> None:
    """Solve every class of each point at its current vacations.

    Stores ``(spaces, processes, solutions, saturated)`` in
    ``point.state``.  Class ``p`` of a point is assembled, then its
    ``fixed_point.class_solve`` and ``qbd.solve`` fault sites fire
    inside the saturation guard, before class ``p + 1`` starts.  A
    saturated class keeps its previous ``R`` as the warm seed for
    whenever it turns stable again.
    """
    jobs: list[_Job] = []
    for pt in points:
        for p in range(pt.L):
            try:
                assemble_class(pt.ctx, p, pt.vacations[p])
            except Exception as exc:  # noqa: BLE001 - per-point isolation
                pt.fail(exc)
            if pt.finished:
                break
            jobs.append(_Job(pt, p))
            _isolated(jobs[-1], _fault_sites, p)
    _stability(_live(jobs))
    _rsolve(_live(jobs))
    for j in _live(jobs):
        _isolated(j, finish_class, j.pt.ctx, j.p, j.report, j.R,
                  j.solve_report)
    for pt in points:
        if not pt.finished:
            arts = pt.ctx.classes
            pt.state = ([a.space for a in arts], [a.process for a in arts],
                        [a.solution for a in arts],
                        [a.saturated for a in arts])


def _fault_sites(p: int) -> None:
    maybe_fault("fixed_point.class_solve", key=p)
    maybe_fault("qbd.solve")


def _stability(jobs: list[_Job]) -> None:
    """Drift tests, stacked by phase dimension; unstable classes saturate."""
    for group in _by_dim(jobs):
        with _span("stability", group):
            up, down, y, ok = bk.batched_drift(*_stacked(group))
            for i, j in enumerate(group):
                if ok[i]:
                    j.report = DriftReport(up=float(up[i]),
                                           down=float(down[i]),
                                           phase_stationary=y[i])
                else:
                    # Reducible chain (or numerical trouble): the
                    # per-class test raises the proper error.
                    _isolated(j, _drift_alone, j)
        for j in group:
            if j.report is not None and not j.report.stable:
                _saturate(j)


def _drift_alone(job: _Job) -> None:
    pr = job.art.process
    job.report = drift(pr.A0, pr.A1, pr.A2)


def _stackable(job: _Job) -> bool:
    """Whether the stacked ``R`` solve reproduces this job's resilient
    solve: the default logarithmic-reduction chain, no wall-clock or
    tight iteration budget, no matrix-free refinement of its seed, and
    no fault armed at the ``R`` solve."""
    opts = job.pt.opts
    policy = opts.resilience
    if policy is None or opts.rmatrix_method != "logreduction" \
            or (policy.chain or ("logreduction",))[0] != "logreduction":
        return False
    retry = policy.retry
    if retry.wall_clock_budget is not None or (
            retry.max_total_iterations is not None
            and retry.max_total_iterations < _R_MAX_ITER):
        return False
    if faults.spec_for("rmatrix.solve") or faults.spec_for("rmatrix.result"):
        return False
    d = job.art.process.phase_dim
    return (_seed(job) is None
            or select_backend(opts.backend, d * d) != "sparse")


def _seed(job: _Job):
    """The job's warm ``R`` seed, ``None`` where ``solve_R`` drops it."""
    prev = job.art.R
    d = job.art.process.phase_dim
    if prev is None or prev.shape != (d, d) or not np.all(np.isfinite(prev)):
        return None
    return prev


def _rsolve(jobs: list[_Job]) -> None:
    """``R`` of every job: stacked where it reproduces the resilient
    solve, through :func:`solve_rmatrix` otherwise."""
    for group in _by_dim([j for j in jobs if _stackable(j)]):
        with _span("rsolve", group):
            t0 = time.monotonic()
            A0, A1, A2 = _stacked(group)
            seeds = [_seed(j) for j in group]
            R0 = np.stack([np.zeros_like(A1[0]) if s is None else s
                           for s in seeds])
            seeded = np.array([s is not None for s in seeds])
            R, refined, iters, ok = bk.batched_solve_R(
                A0, A1, A2, R0=R0, seeded=seeded, tol=_R_TOL,
                max_iter=_R_MAX_ITER)
            # resilient_solve_R's acceptance test, per slice.
            resid = np.abs(R @ R @ A2 + R @ A1 + A0).max(axis=(1, 2))
            scale = np.maximum(1.0, np.abs(A1).max(axis=(1, 2)))
            threshold = np.array([j.pt.opts.resilience.acceptance_residual
                                  for j in group])
            ok &= np.isfinite(R).all(axis=(1, 2)) & (resid <= threshold
                                                      * scale)
            live = np.flatnonzero(ok)
            if live.size:
                sp_r = np.abs(np.linalg.eigvals(R[live])).max(axis=1)
                ok[live[sp_r >= 1.0]] = False
            elapsed = (time.monotonic() - t0) / len(group)
        for i, j in enumerate(group):
            if not ok[i]:
                continue
            j.R = np.clip(R[i], 0.0, None)
            j.solve_report = SolveReport(method="logreduction", attempts=[
                AttemptRecord(method="logreduction", attempt=0, tol=_R_TOL,
                              regularization=0.0, outcome="ok", error=None,
                              iterations=int(iters[i]),
                              residual=float(resid[i]), elapsed=elapsed,
                              backend=j.pt.opts.backend)])
            _count(bool(refined[i]), int(iters[i]), float(resid[i]))
    for j in jobs:
        if j.R is None and not j.pt.finished:
            with span("stage.rsolve", timings=j.pt.ctx.timings,
                      stage="rsolve", klass=j.p):
                _isolated(j, _solve_alone, j)


def _solve_alone(job: _Job) -> None:
    job.R, job.solve_report = solve_rmatrix(job.art.process, job.pt.opts,
                                            job.art.R)


def _count(refined: bool, iterations: int, residual: float) -> None:
    """The solver metrics a resilient ``logreduction`` solve records."""
    if not metrics.enabled():
        return
    method = "logreduction"
    metrics.inc("rsolve.solves", method=method, refined=refined)
    metrics.observe("rsolve.iterations", iterations, method=method)
    metrics.observe("rsolve.residual", residual, method=method)
    metrics.inc("fallback.attempts", method=method, outcome="ok")
    metrics.inc("fallback.solves", status="ok", fallback=False)


def extract_points(points) -> dict:
    """Reduced effective quanta ``{(point, p): PH}`` of every stable class.

    The classes of all ``points`` that share a state space are
    extracted together; each raw quantum is reduced (``stage.reduce``)
    as soon as its stack is built and dropped before the next stack is.
    A group whose extraction raises is extracted again one class at a
    time, so only the point that cannot be extracted (or reduced)
    fails.
    """
    groups: dict = {}
    for pt in points:
        for p in range(pt.L):
            if not pt.state[3][p]:
                groups.setdefault(pt.ctx.classes[p].space, []).append(
                    _Job(pt, p))
    eff: dict = {}
    for space, group in groups.items():
        try:
            _extract(space, group, eff)
        except Exception:  # noqa: BLE001 - isolate the failing point
            for j in group:
                if (j.pt, j.p) not in eff and not j.pt.finished:
                    try:
                        _extract(space, [j], eff)
                    except Exception as exc:  # noqa: BLE001 - per point
                        j.pt.fail(exc)
    return eff


def _extract(space, jobs: list[_Job], eff: dict) -> None:
    """Extract and reduce ``jobs`` (one state space) into ``eff``.

    The jobs of one call share their options (a sweep chunk's points
    do), so the first job's truncation settings serve them all.
    """
    opts = jobs[0].pt.opts
    quanta = extract_effective_quanta(
        space, [(j.art.process, j.art.solution, j.art.vacation)
                for j in jobs],
        truncation_mass=opts.truncation_mass,
        max_levels=opts.max_truncation_levels,
        timed=lambda idx: _span("extract", [jobs[i] for i in idx]))
    for i, raw in quanta:
        j = jobs[i]
        with span("stage.reduce", timings=j.pt.ctx.timings, stage="reduce",
                  klass=j.p):
            eff[j.pt, j.p] = reduce_order(raw, j.pt.opts.reduction,
                                          backend=j.pt.opts.backend)
        del raw  # its stack must go before the next one is built
