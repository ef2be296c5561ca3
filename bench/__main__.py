"""Command line of the benchmark.

::

    python -m bench run     [--workload W ...] [--seed S]
                            [--seconds T] [--trace 0|1] [--out F]
    python -m bench trace   [--workload W ...] [--seed S] [--out F]
    python -m bench compare --parent A.json [...] --change B.json [...]
    python -m bench reference

The module body only defines functions: the ``service`` workload's spawn
worker re-imports it as ``__mp_main__``, and must not start a run.
"""

from __future__ import annotations

import argparse
import sys


def _parser() -> argparse.ArgumentParser:
    from bench.child import MODES
    from bench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="python -m bench")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "trace"):
        p = sub.add_parser(name, help=("end-to-end metrics, untraced" if
                                       name == "run" else
                                       "per-layer ledger (traced run)"))
        p.add_argument("--workload", action="append", choices=list(WORKLOADS),
                       help="workload to run (repeatable; default: all)")
        p.add_argument("--seed", type=int, default=0,
                       help="seed of the generated inputs (default 0)")
        p.add_argument("--out", help="JSON output file "
                       "(default: bench/out/<command>-<workloads>-seed<S>.json)")
        if name == "run":
            p.add_argument("--seconds", type=float,
                           help="measure repeats until this time is spent "
                                "(default: 5 repeats)")
            p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                           help="1: report per-layer metrics instead")
    p = sub.add_parser("compare", help="parent vs change, gated on the "
                       "bounds in BENCHMARK.json")
    p.add_argument("--parent", nargs="+", required=True)
    p.add_argument("--change", nargs="+", required=True)
    sub.add_parser("reference", help="recompute bench/reference")
    p = sub.add_parser("child")     # one set-up or repeat, started by run
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", required=True, choices=MODES)
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--tmp", required=True)
    p.add_argument("--result", required=True)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "child":
        from bench.child import child_main

        return child_main(args.workload, args.seed, args.mode, args.spawned,
                          args.tmp, args.result)
    if args.command == "compare":
        from bench.compare import main_compare

        return main_compare(args.parent, args.change)
    from bench import harness

    if args.command == "reference":
        return harness.main_reference()
    from bench.workloads import WORKLOADS

    trace = args.command == "trace" or bool(getattr(args, "trace", 0))
    return harness.main_run(args.workload or list(WORKLOADS), args.seed,
                            seconds=getattr(args, "seconds", None),
                            trace=trace, out=args.out)


if __name__ == "__main__":
    sys.exit(main())
