"""Start-up loads only what runs.

``scipy.stats`` and ``scipy.optimize`` are the slowest scipy imports the
package uses, and the CLI, the daemon and their workers mostly never
run them: the Poisson windows and the Student-t quantile come from
``scipy.special``, and ``scipy.optimize`` is imported inside the three
functions that call it.  These tests guard both halves: the heavy
modules stay unloaded, and the ``scipy.special`` formulas give the
``scipy.stats`` numbers.  The model itself loads none of the layers
built on it: ``import repro.core`` leaves the simulator, the metrics
and the analysis helpers unloaded.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy import special, stats

SRC = str(Path(__file__).resolve().parents[1] / "src")

HEAVY = ("scipy.stats", "scipy.optimize")

PROBE = f"""
import sys
import repro, repro.scenario, repro.cli, repro.service.daemon
import repro.core.optimize, repro.metrics, repro.sim
from repro.scenario import get_scenario, run
result = run(get_scenario("fig4", grid="quick"))
assert len(result.points) == 8, len(result.points)
assert all(pt.error is None for pt in result.points)
print(sorted(m for m in {HEAVY!r} if m in sys.modules))
"""


def test_imports_and_a_sweep_leave_scipy_stats_and_optimize_unloaded():
    done = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                          text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


CORE_ONLY = ("repro.analysis", "repro.metrics", "repro.sim")

CORE_PROBE = f"""
import sys
import repro.core
print(sorted(m for m in {CORE_ONLY!r} if m in sys.modules))
"""


def test_importing_the_model_leaves_the_layers_above_it_unloaded():
    done = subprocess.run([sys.executable, "-c", CORE_PROBE],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_student_t_quantile_is_scipy_stats_t_ppf():
    for df in [*range(1, 200), 500, 10_000]:
        for confidence in (0.5, 0.8, 0.9, 0.95, 0.99, 0.999):
            q = 0.5 + confidence / 2.0
            assert special.stdtrit(df, q) == stats.t.ppf(q, df), (df, q)


def test_replication_half_width_uses_the_t_quantile():
    from repro.sim.runner import _summarize

    rows = [(1.0,), (2.0,), (4.0,)]
    got = _summarize({"x": rows}, 0.95)["x"].half_width[0]
    sd = float(np.std([r[0] for r in rows], ddof=1))
    assert got == float(stats.t.ppf(0.975, 2)) * sd / math.sqrt(3)
