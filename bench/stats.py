"""Order statistics shared by the harness and the compare tool."""

from __future__ import annotations

import math
from collections.abc import Sequence

__all__ = ["percentile", "median", "quartiles"]


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolation percentile (``p`` in [0, 100]) of ``values``."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` of ``values``."""
    return (percentile(values, 25.0), percentile(values, 50.0),
            percentile(values, 75.0))
