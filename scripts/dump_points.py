#!/usr/bin/env python
"""Print every full-grid figure point as exact ``float.hex`` values.

One line per point of Figures 2-5 (82 points): the scenario name, the
point's index, ``N_p`` then ``T_p`` of every class as ``float.hex``,
the fixed-point iteration count and whether it converged.  Two dumps
are equal exactly when every figure number is equal to the bit, so
``cmp`` of two dumps checks a change that must not move a number:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/dump_points.py > a.txt
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/dump_points.py 1 > b.txt
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/dump_points.py 0 60 > c.txt
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/dump_points.py --chain > d.txt
    cmp a.txt b.txt && cmp a.txt c.txt && cmp a.txt d.txt

The optional first argument is the sweep's chunk width
(``batch_points``); ``0`` or none keeps the scenario's default.  The
optional second argument is a wall-clock ``solve_budget`` in seconds
for every ``R`` solve; a budget that does not bind changes no number.
``--chain`` arms an identity corruption at the ``rmatrix.result``
fault site: no ``R`` changes, but every job leaves the stacked solve
stage for the resilience fallback chain, which must give the same bits.
"""

from __future__ import annotations

import contextlib
import sys

from repro import scenario
from repro.resilience import faults
from repro.scenario import figure_scenarios


def main(argv: list[str]) -> int:
    chain = "--chain" in argv
    argv = [a for a in argv if a != "--chain"]
    batch = int(argv[0]) if argv else 0
    budget = float(argv[1]) if len(argv) > 1 else None
    armed = (faults.inject("rmatrix.result", corrupt=lambda R: R)
             if chain else contextlib.nullcontext())
    with armed:
        for n in (2, 3, 4, 5):
            for s in figure_scenarios(n, grid="full"):
                if batch:
                    s = s.with_engine(batch_points=batch)
                if budget is not None:
                    s = s.with_engine(solve_budget=budget)
                for i, pt in enumerate(scenario.run(s).points):
                    print(s.name, i, *(float(v).hex() for v in
                                       pt.mean_jobs + pt.mean_response_time),
                          pt.iterations, pt.converged)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
