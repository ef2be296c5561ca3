"""Result containers, comparisons and reporting.

* :class:`~repro.analysis.series.Series` / ``Table`` — lightweight
  ordered result holders with CSV and fixed-width rendering (the
  benchmark harness prints the same series the paper plots).
* :mod:`~repro.analysis.compare` — analytic-vs-simulation comparison
  with relative errors and CI coverage.
* :mod:`~repro.analysis.littles_law` — Little's-law consistency checks
  (Theorem 2.1).
* :mod:`~repro.analysis.shapes` — qualitative curve-shape assertions
  (U-shape, monotonicity, knee location) used to verify that the
  reproduced figures match the paper's reported trends.
"""

from repro.analysis.asciiplot import ascii_plot
from repro.analysis.compare import ComparisonRow, compare_analytic_simulation
from repro.analysis.littles_law import littles_law_gap
from repro.analysis.series import Series, Table
from repro.analysis.shapes import (
    is_monotone_decreasing,
    is_monotone_increasing,
    is_u_shaped,
    knee_index,
)

__all__ = [
    "Series",
    "Table",
    "compare_analytic_simulation",
    "ComparisonRow",
    "littles_law_gap",
    "is_u_shaped",
    "is_monotone_increasing",
    "is_monotone_decreasing",
    "knee_index",
    "ascii_plot",
]
