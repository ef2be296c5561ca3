"""Command-line interface: ``repro-gang`` (or ``python -m repro.cli``).

Subcommands
-----------
``run``
    Evaluate a scenario — a JSON file (see :mod:`repro.serialize`) or
    a preset name — through the unified :mod:`repro.scenario` runner.
``scenarios``
    List the preset scenarios (the paper's figures as data); with a
    name, print that preset's canonical JSON.
``solve``
    Solve one gang-scheduled configuration analytically and print the
    per-class report.
``figure``
    Regenerate one of the paper's figures (2-5) as a text table.
``optimize``
    Find the quantum length minimizing total mean jobs — or, with
    ``--target 'p99<=X'``, the smallest quantum meeting a tail SLO.
``simulate``
    Run the discrete-event simulator on a configuration and print the
    statistics (optionally next to the analytic solution).
``report``
    Summarize a trace file produced with ``--trace``: the per-class /
    per-stage timing table plus metric rollups.
``serve``
    Run the scenario service daemon (:mod:`repro.service`): JSONL over
    stdin/stdout by default, or an HTTP front end with ``--http``.
``request``
    Submit one request to a running daemon (``--url``) or serve it
    one-shot against a store directory in-process (``--store``).

Every evaluating subcommand is a thin adapter that builds a
:class:`~repro.scenario.spec.Scenario`; the engine flags (``--backend``,
``--workers``, ``--checkpoint``, ``--fp-tol``, ``--max-iterations``,
``--heavy-traffic``, ``--horizon``, ``--seed``, ``--replications``,
``--budget``) are derived from the one shared
:class:`~repro.scenario.spec.EngineSpec` schema (:data:`ENGINE_FLAGS`),
so every knob is reachable from every subcommand by construction.

Exit status
-----------
0 on success; 1 when a ``request`` reply is neither ok nor an error
(``busy``); 2 on a usage error or an expected solver failure
(:class:`~repro.errors.ReproError`, one ``repro-gang: ...`` line on
stderr); 130 when interrupted (Ctrl-C); 141 when the reader of stdout
has gone (``| head``, ``| grep -q``), with nothing on stderr.  The last
two are the statuses a shell gives a process killed by SIGINT and
SIGPIPE.  ``--traceback`` (before the subcommand) re-raises instead.

Observability
-------------
The evaluating subcommands all accept ``--trace FILE`` (record a span
trace of the run as JSONL) and ``--metrics`` (print the solver's
metric snapshot to stderr on exit); see :mod:`repro.obs`.  ``run`` and
``figure`` additionally accept ``--metrics-select 'mean,p95,p99'`` to
report per-class response-time percentiles and tail probabilities
(:mod:`repro.metrics`).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from repro.core import ClassConfig, GangSchedulingModel, SystemConfig
from repro.errors import ReproError
from repro.scenario import EngineSpec, Scenario, SystemSpec, engine_field_names

__all__ = ["main", "build_parser", "ENGINE_FLAGS"]


#: The shared engine-flag schema: one row per
#: :class:`~repro.scenario.spec.EngineSpec` knob, attached verbatim to
#: every evaluating subcommand.  ``(field, flag, argparse kwargs)``.
ENGINE_FLAGS: tuple[tuple[str, str, dict], ...] = (
    ("backend", "--backend",
     {"choices": ("auto", "dense", "sparse"),
      "help": "kernel selection for assembly and the QBD solves "
              "(default: auto picks per block by size and density)"}),
    ("workers", "--workers",
     {"type": int, "metavar": "N",
      "help": "solve sweep grid points in N supervised worker "
              "processes"}),
    ("checkpoint", "--checkpoint",
     {"metavar": "DIR",
      "help": "persist completed sweep points to the result-store "
              "directory DIR (the format of 'serve --store') and resume "
              "from it; a daemon started on DIR later serves them, but "
              "a DIR in use by a running daemon is refused"}),
    ("batch_points", "--batch",
     {"type": int, "metavar": "N",
      "help": "solve up to N adjacent sweep points at once in lockstep "
              "(stacked BLAS; the width never changes a number); "
              "0 (default) means 8, 1 one point at a time"}),
    ("max_iterations", "--max-iterations",
     {"type": int, "metavar": "N",
      "help": "fixed-point iteration budget (default 200)"}),
    ("tol", "--fp-tol",
     {"type": float, "metavar": "X",
      "help": "fixed-point convergence tolerance (default 1e-5)"}),
    ("heavy_traffic_only", "--heavy-traffic",
     {"action": "store_true",
      "help": "heavy-traffic model only (no fixed point)"}),
    ("solve_budget", "--solve-budget",
     {"type": float, "metavar": "S",
      "help": "wall-clock budget in seconds for each R-matrix solve "
              "of the fallback chain (checked between attempts and "
              "inside substitution and cyclic-reduction attempts; "
              "default: none)"}),
    ("horizon", "--horizon",
     {"type": float, "metavar": "T",
      "help": "simulated time per run (default 20000)"}),
    ("seed", "--seed",
     {"type": int, "metavar": "N",
      "help": "simulation base seed (default 0)"}),
    ("replications", "--replications",
     {"type": int, "metavar": "R",
      "help": "independent simulation replications per point (default 1; "
              ">= 2 adds confidence intervals)"}),
    ("max_evaluations", "--budget",
     {"type": int, "metavar": "N",
      "help": "optimizer model-solve budget (default 60)"}),
)

_unknown = {f for f, _, _ in ENGINE_FLAGS} - set(engine_field_names())
assert not _unknown, f"ENGINE_FLAGS names unknown EngineSpec fields: {_unknown}"


def _add_engine_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("engine options (shared scenario schema)")
    for field, flag, kwargs in ENGINE_FLAGS:
        g.add_argument(flag, dest=field, default=None, **kwargs)
    # ``--no-batch`` is sugar for ``--batch 1``: one point at a time,
    # whatever width the scenario asks for.
    g.add_argument("--no-batch", dest="batch_points", action="store_const",
                   const=1, help="solve sweep points one at a time "
                   "(equivalent to --batch 1)")


def _engine_overrides(args) -> dict:
    """Engine fields the user set explicitly (``None`` = keep scenario's)."""
    return {field: getattr(args, field)
            for field, _, _ in ENGINE_FLAGS
            if getattr(args, field, None) is not None}


def _engine_spec(args, base: EngineSpec | None = None) -> EngineSpec:
    return dataclasses.replace(base if base is not None else EngineSpec(),
                               **_engine_overrides(args))


def _add_system_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--processors", type=int, default=8,
                   help="total processors P (default 8)")
    p.add_argument("--class", dest="classes", action="append",
                   metavar="g,lam,mu,quantum,overhead", default=None,
                   help="add a job class: partition size, arrival rate, "
                        "service rate, mean quantum, mean overhead "
                        "(repeatable; default: the paper's fig-2 classes)")
    p.add_argument("--empty-queue", dest="empty_queue",
                   choices=("switch", "idle"), default="switch",
                   help="behaviour when a queue empties mid-quantum")
    p.add_argument("--config", metavar="FILE", default=None,
                   help="load the system from a JSON file (see "
                        "repro.serialize); overrides --processors/--class")


def _parse_system(args) -> SystemConfig:
    if getattr(args, "config", None):
        from repro.serialize import load_system
        return load_system(args.config)
    if args.classes:
        classes = []
        for spec in args.classes:
            try:
                g, lam, mu, q, oh = (float(x) for x in spec.split(","))
            except ValueError:
                raise SystemExit(
                    f"bad --class spec {spec!r}; expected g,lam,mu,quantum,"
                    "overhead")
            classes.append(ClassConfig.markovian(
                int(g), arrival_rate=lam, service_rate=mu,
                quantum_mean=q, overhead_mean=oh))
        return SystemConfig(processors=args.processors,
                            classes=tuple(classes),
                            empty_queue_policy=args.empty_queue)
    from repro.workloads import fig23_config
    return fig23_config(0.4, 2.0, policy=args.empty_queue)


def _add_policy_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--policy", metavar="SPEC", default=None,
                   help="scheduling policy: KIND[:ARGS], e.g. "
                        "'weighted:2/1/1/1', "
                        "'priority:order=3/2/1/0,decay=0.5', "
                        "'malleable:procs=2/2/4/8,sigma=0.7' "
                        "(default: the paper's round-robin)")


def _parse_policy_arg(args):
    """The scheduling policy named by ``--policy`` (``None`` if unset)."""
    spec = getattr(args, "policy", None)
    if spec is None:
        return None
    from repro.policy import parse_policy
    return parse_policy(spec)


def _checkpoint_summary(path, result) -> None:
    if result.resumed:
        print(f"repro-gang: checkpoint {path}: "
              f"{result.resumed}/{len(result.points)} point(s) resumed",
              file=sys.stderr)


def _print_comparison(result) -> None:
    pt = result.points[0]
    print("\nanalytic comparison:")
    for p, name in enumerate(result.class_names):
        print(f"  {name}: model N={pt.mean_jobs[p]:.4f} "
              f"sim N={pt.sim_mean_jobs[p]:.4f} ({pt.delta[p]:+.1%})")


def _print_metric_result(result) -> None:
    """Render per-class distribution metrics when the run carried any."""
    table = result.metrics_table()
    if table is None:
        return
    print()
    print("# response-time metrics")
    print(table.render())
    kinds = next((pt.dist_kinds for pt in result.points
                  if pt.dist_kinds is not None), None)
    if kinds is not None and any(k != "exact" for k in kinds):
        pairs = ", ".join(f"{n}={k}"
                          for n, k in zip(result.class_names, kinds))
        print(f"# distribution kinds: {pairs}")


def _metric_selectors_arg(args) -> tuple[str, ...] | None:
    """Selector tuple from ``--metrics-select`` (``None`` if unset)."""
    spec = getattr(args, "metrics_select", None)
    if spec is None:
        return None
    selectors = tuple(s.strip() for s in spec.split(",") if s.strip())
    if not selectors:
        raise SystemExit("repro-gang: --metrics-select needs at least one "
                         "selector (e.g. 'mean,p95,p99')")
    return selectors


def _cmd_solve(args) -> int:
    from repro.scenario import run as run_scenario
    scenario = Scenario(name="solve",
                        system=SystemSpec(config=_parse_system(args),
                                          policy=_parse_policy_arg(args)),
                        engine=_engine_spec(args))
    result = run_scenario(scenario)
    print(result.solved.describe())
    return 0


def _cmd_figure(args) -> int:
    from repro.analysis import Table
    from repro.scenario import figure_scenarios
    from repro.scenario import run as run_scenario
    policy = _parse_policy_arg(args)
    selectors = _metric_selectors_arg(args)
    scenarios = [s.with_engine(**_engine_overrides(args)).with_policy(policy)
                 for s in figure_scenarios(args.number)]
    if selectors is not None:
        scenarios = [s.with_output(metrics=selectors) for s in scenarios]
    if len(scenarios) == 1:
        result = run_scenario(scenarios[0])
        _checkpoint_summary(args.checkpoint, result)
        table = Table(result.parameter,
                      [f"N[{n}]" for n in result.class_names])
        for pt in result.points:
            table.add_row(pt.value, pt.mean_jobs)
    else:
        # Figure 5: one scenario per focus class; column p is N_p of the
        # scenario that grants class p the swept cycle fraction.  One
        # --checkpoint store holds all four curves.
        results = [run_scenario(s) for s in scenarios]
        for r in results:
            _checkpoint_summary(args.checkpoint, r)
        table = Table("fraction", [f"N[class{p}]" for p in range(4)])
        for i, f in enumerate(results[0].values()):
            table.add_row(f, [results[p].points[i].mean_jobs[p]
                              for p in range(4)])
    print(table.render())
    if selectors is not None and len(scenarios) == 1:
        _print_metric_result(result)
    if args.plot:
        from repro.analysis import ascii_plot
        print()
        print(ascii_plot([table.column(c) for c in table.column_names],
                         title=f"Figure {args.number}"))
    return 0


def _cmd_optimize(args) -> int:
    from repro.core import (
        optimize_priority_order,
        optimize_quantum,
        optimize_weights,
    )
    base = _parse_system(args)
    eng = _engine_spec(args)
    policy = _parse_policy_arg(args)
    model_kwargs = eng.model_kwargs()

    if args.target is not None and args.search != "quantum":
        raise SystemExit("repro-gang optimize: --target (tail SLO) is only "
                         "supported with --search quantum")

    if args.search == "weights":
        best = optimize_weights(base, max_evaluations=eng.max_evaluations,
                                model_kwargs=model_kwargs)
        print(f"optimal policy: {best.policy.describe()}")
        print(f"objective (total mean jobs): {best.objective_value:.4f}")
        print(f"model solves: {best.evaluations}")
        solved = GangSchedulingModel(
            base, policy=best.policy,
            **model_kwargs).solve(**eng.solve_kwargs())
        print()
        print(solved.describe())
        return 0
    if args.search == "priority":
        best = optimize_priority_order(base, model_kwargs=model_kwargs)
        print(f"optimal policy: {best.policy.describe()}")
        print(f"objective (total mean jobs): {best.objective_value:.4f}")
        print(f"model solves: {best.evaluations}")
        solved = GangSchedulingModel(
            base, policy=best.policy,
            **model_kwargs).solve(**eng.solve_kwargs())
        print()
        print(solved.describe())
        return 0

    # Quantum-length search (the default), under whatever scheduling
    # policy --policy named.
    if policy is not None:
        model_kwargs["policy"] = policy

    def with_quantum(q: float) -> SystemConfig:
        return SystemConfig(
            processors=base.processors,
            classes=tuple(
                ClassConfig(partition_size=c.partition_size,
                            arrival=c.arrival, service=c.service,
                            quantum=c.quantum.rescaled(q),
                            overhead=c.overhead, name=c.name)
                for c in base.classes),
            empty_queue_policy=base.empty_queue_policy,
        )

    if args.target is not None:
        from repro.core.optimize import optimize_quantum_for_slo
        best = optimize_quantum_for_slo(
            with_quantum, target=args.target, bounds=(args.min, args.max),
            tol=args.search_tol, max_evaluations=eng.max_evaluations,
            model_kwargs=model_kwargs)
        sel, bound = best.target.selector, best.target.bound
        if not best.feasible:
            print(f"SLO {sel}<={bound:g} is infeasible on "
                  f"[{args.min:g}, {args.max:g}]: the best quantum "
                  f"({best.best_quantum:.4f}) only reaches "
                  f"{sel}={best.best_metric_value:.4f} "
                  f"({best.evaluations} model solves)", file=sys.stderr)
            return 2
        print(f"smallest quantum meeting {sel}<={bound:g}: "
              f"{best.quantum:.4f}")
        print(f"worst-class {sel} at that quantum: "
              f"{best.metric_value:.4f}")
        print(f"model solves: {best.evaluations}")
        solved = GangSchedulingModel(
            with_quantum(best.quantum),
            **model_kwargs).solve(**eng.solve_kwargs())
        print()
        print(solved.describe())
        return 0

    best = optimize_quantum(with_quantum, bounds=(args.min, args.max),
                            tol=args.search_tol,
                            max_evaluations=eng.max_evaluations,
                            model_kwargs=model_kwargs)
    print(f"optimal quantum mean: {best.quantum:.4f}")
    print(f"objective (total mean jobs): {best.objective_value:.4f}")
    print(f"model solves: {best.evaluations}")
    solved = GangSchedulingModel(
        with_quantum(best.quantum),
        **model_kwargs).solve(**eng.solve_kwargs())
    print()
    print(solved.describe())
    return 0


def _cmd_simulate(args) -> int:
    from repro.scenario import run as run_scenario
    base = EngineSpec(engine="both" if args.compare else "sim")
    scenario = Scenario(name="simulate",
                        system=SystemSpec(config=_parse_system(args),
                                          policy=_parse_policy_arg(args)),
                        engine=_engine_spec(args, base))
    result = run_scenario(scenario)
    print(result.sim.describe(result.class_names))
    if args.compare:
        _print_comparison(result)
    return 0


def _print_run_result(result, *, plot: bool = False) -> None:
    if result.parameter is None:
        if result.solved is not None:
            print(result.solved.describe())
        if result.sim is not None:
            if result.solved is not None:
                print()
            print(result.sim.describe(result.class_names))
        if result.engine == "both":
            _print_comparison(result)
        _print_metric_result(result)
        return
    measures = result.scenario.output.measures or ("mean_jobs",)
    tables = [(m, result.to_table(m)) for m in measures]
    for i, (measure, table) in enumerate(tables):
        if i:
            print()
        if len(tables) > 1:
            print(f"# {measure}")
        print(table.render())
    _print_metric_result(result)
    if plot:
        from repro.analysis import ascii_plot
        table = tables[0][1]
        print()
        print(ascii_plot([table.column(c) for c in table.column_names],
                         title=result.scenario.name or "scenario"))


def _load_scenario_arg(ref: str, grid: str = "default"):
    """Resolve a SCENARIO argument: a JSON file path or a preset name.

    Anything that exists on disk — or merely *looks* like a path
    (a ``.json`` suffix or a path separator) — is treated as a file,
    so a missing or corrupt scenario file fails with the standard
    one-line :class:`~repro.errors.ReproError` message (exit 2)
    instead of a confusing unknown-preset listing or a raw traceback.
    """
    import pathlib

    from repro.scenario import get_scenario
    path = pathlib.Path(ref)
    if path.exists() or path.suffix == ".json" or os.sep in ref:
        from repro.serialize import load_scenario
        return load_scenario(path)
    return get_scenario(ref, grid=grid)


def _cmd_run(args) -> int:
    from repro.scenario import run as run_scenario
    scenario = _load_scenario_arg(args.scenario, grid=args.grid)
    overrides = _engine_overrides(args)
    if args.engine is not None:
        overrides["engine"] = args.engine
    scenario = scenario.with_engine(**overrides) \
                       .with_policy(_parse_policy_arg(args))
    selectors = _metric_selectors_arg(args)
    if selectors is not None:
        scenario = scenario.with_output(metrics=selectors)
    result = run_scenario(scenario)
    _checkpoint_summary(scenario.engine.checkpoint, result)
    _print_run_result(result, plot=args.plot)
    return 0


def _cmd_scenarios(args) -> int:
    from repro.scenario import get_scenario, list_scenarios
    if args.name:
        import json

        from repro.serialize import scenario_to_dict
        scenario = get_scenario(args.name, grid=args.grid)
        print(json.dumps(scenario_to_dict(scenario), indent=2))
        return 0
    print(f"{'name':<22} {'engine':<9} {'sweep':<18} description")
    for s in list_scenarios(grid=args.grid):
        axis = (f"{s.parameter} x{len(s.grid())}" if s.axis is not None
                else "single point")
        print(f"{s.name:<22} {s.engine.engine:<9} {axis:<18} {s.description}")
    return 0


def _cmd_serve(args) -> int:
    from repro.service import ScenarioService, ServiceConfig
    config = ServiceConfig(
        store_dir=args.store, workers=args.workers,
        max_pending=args.max_pending, default_timeout=args.timeout,
        trace=getattr(args, "trace", None),
        compact_on_start=bool(getattr(args, "compact_on_start", False)),
        log=getattr(args, "log", None),
        log_max_bytes=getattr(args, "log_max_bytes", 16 << 20),
        profile_workers=bool(getattr(args, "profile_workers", False)))
    with ScenarioService(config) as service:
        if args.http is not None:
            httpd = service.serve_http(args.host, args.http)
            host, port = httpd.server_address[:2]
            print(f"repro-gang: serving HTTP on {host}:{port} "
                  f"(store {args.store}, {args.workers} worker(s))",
                  file=sys.stderr)
            try:
                httpd.serve_forever()
            except KeyboardInterrupt:
                pass
            finally:
                httpd.server_close()
        else:
            service.serve_stdio()
    return 0


def _request_payload(args) -> dict:
    """Build the request object a ``request`` invocation sends."""
    import pathlib

    request: dict = {"id": args.id, "op": args.op}
    if args.op == "run":
        if args.scenario is None:
            raise SystemExit("repro-gang request: a run request needs a "
                             "SCENARIO (file or preset name)")
        path = pathlib.Path(args.scenario)
        if path.exists() or path.suffix == ".json" or os.sep in args.scenario:
            from repro.serialize import load_scenario, scenario_to_dict
            request["scenario"] = scenario_to_dict(load_scenario(path))
        else:
            request["preset"] = args.scenario
            request["grid"] = args.grid
        overrides = _engine_overrides(args)
        if overrides:
            request["engine"] = overrides
    if args.timeout is not None:
        request["timeout"] = args.timeout
    return request


def _cmd_request(args) -> int:
    import json
    if (args.url is None) == (args.store is None):
        raise SystemExit("repro-gang request: pass exactly one of --url "
                         "(a running daemon) or --store (one-shot, "
                         "in-process)")
    request = _request_payload(args)
    if args.url is not None:
        import urllib.error
        import urllib.request
        try:
            with urllib.request.urlopen(urllib.request.Request(
                    args.url, data=json.dumps(request).encode("utf-8"),
                    headers={"Content-Type": "application/json"}),
                    timeout=args.timeout or 600.0) as http_response:
                response = json.loads(http_response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            response = json.loads(exc.read().decode("utf-8"))
        except (urllib.error.URLError, OSError) as exc:
            raise ReproError(
                f"cannot reach scenario service at {args.url}: {exc}"
            ) from exc
    else:
        from repro.service import ScenarioService, ServiceConfig
        config = ServiceConfig(store_dir=args.store,
                               workers=args.workers or 0,
                               default_timeout=args.timeout)
        with ScenarioService(config) as service:
            response = service.handle(request)
    print(json.dumps(response, indent=2))
    status = response.get("status")
    if status in ("ok", "degraded"):
        return 0
    return 2 if status == "error" else 1


def _cmd_report(args) -> int:
    from repro.obs import (render_report, render_requests,
                           summarize_trace, write_chrome_trace)
    try:
        summary = summarize_trace(args.trace_file)
    except FileNotFoundError:
        print(f"repro-gang: no such trace file: {args.trace_file}",
              file=sys.stderr)
        return 2
    if getattr(args, "chrome", None):
        n = write_chrome_trace(args.trace_file, args.chrome)
        print(f"repro-gang: wrote {n} trace event(s) to {args.chrome} "
              "(open in ui.perfetto.dev or speedscope)", file=sys.stderr)
    if getattr(args, "requests", False):
        print(render_requests(summary))
    else:
        print(render_report(summary))
    return 0


def _add_obs_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", metavar="FILE", default=None,
                   help="record a span trace of the run as JSONL to FILE "
                        "(summarize it with 'repro-gang report FILE')")
    p.add_argument("--metrics", action="store_true",
                   help="collect solver metrics and print the snapshot to "
                        "stderr on exit")


def _add_metric_select_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--metrics-select", dest="metrics_select",
                   metavar="SEL[,SEL...]", default=None,
                   help="report these response-time metrics per class "
                        "('mean,p95,p99,tail@t'); anything beyond the "
                        "default mean extracts per-class distributions "
                        "from the solved model")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-gang",
        description="Gang-scheduling analysis and simulation "
                    "(SPAA '96 reproduction)")
    parser.add_argument("--traceback", action="store_true",
                        help="dump the full traceback on solver errors "
                             "and interrupts instead of a one-line message")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run",
                           help="evaluate a scenario (JSON file or preset "
                                "name) through the unified runner")
    p_run.add_argument("scenario", metavar="SCENARIO",
                       help="path of a scenario JSON file, or a preset "
                            "name from 'repro-gang scenarios'")
    p_run.add_argument("--grid", choices=("default", "quick", "full"),
                       default="default",
                       help="grid tier for preset scenarios (default: "
                            "default)")
    p_run.add_argument("--engine", choices=("analytic", "sim", "both"),
                       default=None,
                       help="override the scenario's engine")
    p_run.add_argument("--plot", action="store_true",
                       help="also render swept curves as a text plot")
    _add_policy_arg(p_run)
    _add_engine_args(p_run)
    _add_obs_args(p_run)
    _add_metric_select_arg(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sc = sub.add_parser("scenarios",
                          help="list preset scenarios, or print one as JSON")
    p_sc.add_argument("name", nargs="?", default=None,
                      help="print this preset's canonical JSON instead of "
                           "the listing")
    p_sc.add_argument("--grid", choices=("default", "quick", "full"),
                      default="default",
                      help="grid tier for the listing/export")
    p_sc.set_defaults(func=_cmd_scenarios)

    p_solve = sub.add_parser("solve", help="solve a configuration analytically")
    _add_system_args(p_solve)
    _add_policy_arg(p_solve)
    _add_engine_args(p_solve)
    _add_obs_args(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_fig = sub.add_parser("figure", help="regenerate a paper figure")
    p_fig.add_argument("number", choices=("2", "3", "4", "5"),
                       help="figure number")
    p_fig.add_argument("--plot", action="store_true",
                       help="also render the curves as a text plot")
    _add_policy_arg(p_fig)
    _add_engine_args(p_fig)
    _add_obs_args(p_fig)
    _add_metric_select_arg(p_fig)
    p_fig.set_defaults(func=_cmd_figure)

    p_opt = sub.add_parser("optimize",
                           help="find the quantum, policy weights, or "
                                "priority order minimizing total mean jobs")
    _add_system_args(p_opt)
    _add_policy_arg(p_opt)
    p_opt.add_argument("--search", choices=("quantum", "weights", "priority"),
                       default="quantum",
                       help="which knob to optimize: quantum length "
                            "(default), WeightedQuantum weights, or "
                            "PriorityCycle ordering")
    p_opt.add_argument("--min", type=float, default=0.1,
                       help="lower bound of the quantum search (default 0.1)")
    p_opt.add_argument("--max", type=float, default=8.0,
                       help="upper bound of the quantum search (default 8)")
    p_opt.add_argument("--tol", dest="search_tol", type=float, default=0.01,
                       help="relative interval tolerance of the quantum "
                            "search (default 0.01)")
    p_opt.add_argument("--target", metavar="SLO", default=None,
                       help="find the smallest quantum meeting a tail-SLO "
                            "bound instead of minimizing congestion: "
                            "'p99<=2.5', 'tail@5<=0.01', 'mean<=3' "
                            "(worst class must meet the bound; "
                            "--search quantum only)")
    _add_engine_args(p_opt)
    _add_obs_args(p_opt)
    p_opt.set_defaults(func=_cmd_optimize)

    p_sim = sub.add_parser("simulate", help="simulate a configuration")
    _add_system_args(p_sim)
    _add_policy_arg(p_sim)
    p_sim.add_argument("--compare", action="store_true",
                       help="also solve analytically and compare")
    _add_engine_args(p_sim)
    _add_obs_args(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_srv = sub.add_parser("serve",
                           help="run the scenario service daemon (JSONL "
                                "stdio, or HTTP with --http)")
    p_srv.add_argument("--store", required=True, metavar="DIR",
                       help="result store directory (created if missing)")
    p_srv.add_argument("--workers", type=int, default=0, metavar="N",
                       help="supervised worker processes (default 0: "
                            "solve inline)")
    p_srv.add_argument("--max-pending", type=int, default=8, metavar="N",
                       help="bounded request queue; overflow gets a busy "
                            "reply (default 8)")
    p_srv.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="default per-request deadline in seconds "
                            "(default: none)")
    p_srv.add_argument("--http", type=int, default=None, metavar="PORT",
                       help="serve HTTP on PORT instead of stdio "
                            "(0 picks a free port)")
    p_srv.add_argument("--host", default="127.0.0.1",
                       help="HTTP bind address (default 127.0.0.1)")
    p_srv.add_argument("--trace", metavar="FILE", default=None,
                       help="record the daemon's span trace to FILE")
    p_srv.add_argument("--log", metavar="FILE", default=None,
                       help="structured JSON-lines event log (rotated "
                            "by size)")
    p_srv.add_argument("--log-max-bytes", type=int, default=16 << 20,
                       metavar="N",
                       help="rotate the --log file past N bytes "
                            "(default 16 MiB, keeping 3 backups)")
    p_srv.add_argument("--profile-workers", action="store_true",
                       help="cProfile every worker task; hotspots land "
                            "in the trace and 'repro-gang report'")
    p_srv.add_argument("--compact-on-start", action="store_true",
                       help="compact the result store before serving "
                            "(rewrite live records, drop superseded and "
                            "quarantined ones)")
    p_srv.set_defaults(func=_cmd_serve)

    p_req = sub.add_parser("request",
                           help="submit one request to the scenario "
                                "service")
    p_req.add_argument("scenario", metavar="SCENARIO", nargs="?",
                       default=None,
                       help="scenario JSON file or preset name (for "
                            "--op run)")
    p_req.add_argument("--grid", choices=("default", "quick", "full"),
                       default="default",
                       help="grid tier for preset scenarios")
    p_req.add_argument("--op", choices=("run", "ping", "stats", "shutdown"),
                       default="run", help="operation (default run)")
    p_req.add_argument("--url", default=None, metavar="URL",
                       help="POST to a daemon started with serve --http")
    p_req.add_argument("--store", default=None, metavar="DIR",
                       help="serve the request one-shot, in-process, "
                            "against this store directory")
    p_req.add_argument("--id", default="cli", metavar="ID",
                       help="request id echoed in the reply (default cli)")
    p_req.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="per-request deadline in seconds")
    _add_engine_args(p_req)
    p_req.set_defaults(func=_cmd_request)

    p_rep = sub.add_parser("report",
                           help="summarize a --trace file: per-class/"
                                "per-stage timings and metric rollups")
    p_rep.add_argument("trace_file", metavar="TRACE",
                       help="JSONL trace file written by --trace")
    p_rep.add_argument("--requests", action="store_true",
                       help="per-request table (service traces): elapsed, "
                            "span time, and pids per request ID")
    p_rep.add_argument("--chrome", metavar="OUT", default=None,
                       help="also export Chrome trace-event JSON to OUT "
                            "(open in ui.perfetto.dev or speedscope)")
    p_rep.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    trace_path = getattr(args, "trace", None)
    want_metrics = bool(getattr(args, "metrics", False))
    collecting = trace_path is not None or want_metrics
    if collecting:
        from repro import obs
        obs.start(trace_path=trace_path)
    try:
        status = args.func(args)
        # Flush inside the try: small outputs are still buffered, and a
        # gone reader would otherwise fail the interpreter's last flush.
        sys.stdout.flush()
        return status
    except ReproError as exc:
        # Solver failures (instability, non-convergence, a bad
        # checkpoint path) are expected operational outcomes: report them
        # readably and exit 2, reserving tracebacks for --traceback.
        if args.traceback:
            raise
        print(f"repro-gang: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # Ctrl-C (or `timeout -s INT`, which signals twice): one line and
        # the shell's 128 + SIGINT, not a traceback per signal.
        if args.traceback:
            raise
        print("repro-gang: interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # The reader of stdout has gone: stop quietly with the shell's
        # 128 + SIGPIPE.  Whatever is still buffered goes to /dev/null,
        # so the flush at interpreter exit cannot fail again.
        if args.traceback:
            raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    finally:
        if collecting:
            from repro import obs
            from repro.obs import render_snapshot
            snap = obs.stop()
            if want_metrics:
                print(render_snapshot(snap), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
