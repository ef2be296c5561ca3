"""The staged per-class solve: assemble -> stability -> R -> boundary -> extract.

Each stage reads and writes the :class:`~repro.pipeline.context.SolveContext`;
:func:`solve_all` strings them together for one point.
:func:`solve_points` and :func:`extract_points` lift them over a list of
points: they are the per-point :class:`~repro.core.fixed_point.StageSet`
the fixed-point driver runs for a single solve.

The stages fold in the pipeline's two per-iteration wins:

* Kronecker assembly with a reused workspace
  (:func:`repro.pipeline.assembly.build_class_qbd_fast`);
* warm-started ``R`` solves seeded with the class's previous iterate.
  A class re-solved from its own converged ``R`` passes the refinement's
  residual test at once and gets that ``R`` back unchanged.

Extraction runs :func:`repro.pipeline.extract.extract_effective_quantum`
(the n = 1 case of the stacked extraction the batched engine shares)
on lookup, one class at a time.  The batched engine shares the
boundary stage too: it finishes every class with :func:`finish_class`.

Every stage runs under an observability span (``stage.assemble``,
``stage.stability``, ``stage.rsolve``, ``stage.boundary``,
``stage.extract``; the driver adds ``stage.reduce`` and
``stage.recombine``; see :mod:`repro.obs`) tagged with the class
index.  The spans feed ``ctx.timings`` from the same clock window they
trace, so ``FixedPointResult.timings`` is a view over the trace — and
with tracing disabled they degrade to the bare wall-clock
accumulation.
"""

from __future__ import annotations

from repro.errors import UnstableSystemError
from repro.obs.trace import span
from repro.phasetype import PhaseType
from repro.pipeline.assembly import build_class_qbd_fast
from repro.pipeline.context import SolveContext
from repro.pipeline.extract import extract_effective_quantum
from repro.qbd.boundary import solve_boundary
from repro.qbd.rmatrix import solve_R
from repro.qbd.stability import drift
from repro.qbd.stationary import QBDStationaryDistribution
from repro.resilience.fallback import resilient_solve_R
from repro.resilience.faults import maybe_fault

__all__ = ["assemble_class", "solve_class", "finish_class", "solve_rmatrix",
           "extract_class", "solve_all", "solve_points", "extract_points"]

#: Tolerance of the per-class ``R`` solves (the ``solve_qbd`` default).
_R_TOL = 1e-12


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


def solve_class(ctx: SolveContext, p: int) -> QBDStationaryDistribution:
    """Stability test, ``R`` solve and boundary solve for class ``p``.

    Semantically :func:`repro.qbd.stationary.solve_qbd` (same fault
    site, same instability message, same resilience plumbing) with the
    stages timed separately and the ``R`` iteration seeded with the
    class's previous iterate.
    """
    opts = ctx.opts
    art = ctx.classes[p]
    process = art.process
    maybe_fault("qbd.solve")
    with span("stage.stability", timings=ctx.timings, stage="stability",
              klass=p):
        report = drift(process.A0, process.A1, process.A2)
    if not report.stable:
        raise UnstableSystemError(
            f"QBD is not positive recurrent: mean up-rate {report.up:.6g} >= "
            f"mean down-rate {report.down:.6g} "
            f"(rho={report.traffic_intensity:.4g})",
            drift=report.drift,
        )
    with span("stage.rsolve", timings=ctx.timings, stage="rsolve",
              klass=p):
        R, solve_report = solve_rmatrix(process, opts, art.R)
    return finish_class(ctx, p, report, R, solve_report)


def finish_class(ctx: SolveContext, p: int, report, R,
                 solve_report) -> QBDStationaryDistribution:
    """Boundary solve of class ``p`` given its drift ``report`` and ``R``.

    Stores the class's solution and ``R`` (the next iteration's warm
    seed).  :func:`solve_class` ends here, and so does every class of
    a batched sweep chunk, whose drift and ``R`` come from stacked
    kernels (``solve_report=None``).
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


def extract_class(ctx: SolveContext, p: int) -> PhaseType:
    """Raw effective quantum of (stable, solved) class ``p``.

    Order reduction is the driver's step (``stage.reduce``), shared
    with the stacked stage set.
    """
    opts = ctx.opts
    art = ctx.classes[p]
    with span("stage.extract", timings=ctx.timings, stage="extract",
              klass=p):
        return extract_effective_quantum(
            art.space, art.process, art.solution, art.vacation,
            truncation_mass=opts.truncation_mass,
            max_levels=opts.max_truncation_levels,
        )


def solve_all(ctx: SolveContext, vacations: list[PhaseType]):
    """Solve every class; saturated classes get ``None`` solutions.

    Returns ``(spaces, processes, solutions, saturated)``.  Class ``p``
    is assembled, then its ``fixed_point.class_solve`` and ``qbd.solve``
    fault sites fire inside the saturation guard, before class
    ``p + 1`` starts.  A saturated class keeps its previous ``R`` as the
    warm seed for whenever it turns stable again.
    """
    spaces, processes, solutions, saturated = [], [], [], []
    for p in range(ctx.config.num_classes):
        art = ctx.classes[p]
        assemble_class(ctx, p, vacations[p])
        try:
            maybe_fault("fixed_point.class_solve", key=p)
            sol = solve_class(ctx, p)
            sat = False
        except UnstableSystemError:
            sol = None
            sat = True
            art.solution = None
        art.saturated = sat
        spaces.append(art.space)
        processes.append(art.process)
        solutions.append(sol)
        saturated.append(sat)
    return spaces, processes, solutions, saturated


def solve_points(points) -> None:
    """:func:`solve_all` for each point at its current vacations.

    Stores the result in ``point.state``; an error other than a
    class's instability fails that point only.
    """
    for pt in points:
        try:
            pt.state = solve_all(pt.ctx, pt.vacations)
        except Exception as exc:  # noqa: BLE001 - per-point isolation
            pt.fail(exc)


def extract_points(points):
    """``raw(point, p)``: :func:`extract_class` on lookup.

    Extracting on demand lets the driver reduce and drop each raw
    quantum (up to the truncation depth in order) before the next is
    built.
    """
    return lambda pt, p: extract_class(pt.ctx, p)
