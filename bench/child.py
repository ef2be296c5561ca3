"""One benchmark child process: one set-up, and optionally one repeat.

The harness starts a fresh interpreter per (workload, repeat) so no
repeat inherits another's caches, store or worker.  The child reports
through a JSON file:

``setup_s``
    From the moment the harness started the process to the end of the
    workload's ``setup()`` (both sides read the system-wide monotonic
    clock).
``wall_s``, ``ops``, ``peak_rss_mb``
    The repeat's wall time, its ``(label, seconds)`` operations, and
    the process's peak resident set (``ru_maxrss``) right after it.
``attempted``, ``failures``
    Operations run (plus untimed check operations) and the
    ``(label, message)`` of every failed check.
``trace``
    Mode ``trace`` only: the ledger's spans and counters.
``reference``
    Mode ``reference`` only: the outputs ``check()`` compares against.
"""

from __future__ import annotations

import json
import pathlib
import resource
import sys
import time

MODES = ("setup", "repeat", "trace", "reference")


def child_main(workload: str, seed: int, mode: str, spawned: float,
               tmp: str, result_path: str) -> int:
    from bench.workloads import WORKLOADS

    wl = WORKLOADS[workload](seed, pathlib.Path(tmp))
    out: dict = {}
    try:
        wl.setup()
        out["setup_s"] = time.monotonic() - spawned
        if mode != "setup":
            out.update(_repeat(wl, mode))
    finally:
        wl.close()
    import numpy
    import scipy

    out["versions"] = {"python": sys.version.split()[0],
                       "numpy": numpy.__version__, "scipy": scipy.__version__}
    pathlib.Path(result_path).write_text(json.dumps(out))
    return 0


def _repeat(wl, mode: str) -> dict:
    ledger = None
    if mode == "trace":
        from bench.ledger import Ledger

        ledger = Ledger()
        ledger.install()
    t0 = time.perf_counter()
    ops = wl.repeat()
    wall = time.perf_counter() - t0
    if ledger is not None:
        ledger.stop()
    out = {"wall_s": wall, "ops": ops,
           "peak_rss_mb": resource.getrusage(
               resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "attempted": len(ops) + wl.extra_checks}
    if ledger is not None:
        out["trace"] = ledger.to_dict(origin=t0)
    if mode == "reference":
        out["reference"] = wl.reference()
    else:
        out["failures"] = wl.check()
    return out
