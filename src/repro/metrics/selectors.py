"""Metric selectors: ``"mean" | "pNN[.N]" | "tail@t"``.

Scenario output specs (and the CLI flags that override them) name the
response-time statistics to report with compact selector strings:

* ``"mean"`` — the mean response time ``T_p`` (Little's law; the
  paper's measure);
* ``"p95"``, ``"p99"``, ``"p99.9"`` — quantiles of the response-time
  distribution at level ``NN / 100``, evaluated under the contract of
  :mod:`repro.metrics.quantiles`;
* ``"tail@2.5"`` — the SLO violation probability ``P{T > 2.5}``; the
  threshold must be finite (``"tail@1e400"`` parses to infinity and is
  rejected).

:data:`DEFAULT_METRICS` is ``("mean",)`` — scenarios that never asked
for distributions keep their schema bytes, hashes and solve cost
unchanged.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from repro.errors import ValidationError

__all__ = [
    "DEFAULT_METRICS",
    "MetricSelector",
    "parse_metric",
    "parse_metrics",
    "selector_columns",
]

#: The selector set of a scenario that asked for nothing beyond means.
DEFAULT_METRICS: tuple[str, ...] = ("mean",)

_QUANTILE_RE = re.compile(r"^p(\d{1,2}(?:\.\d+)?)$")
_TAIL_RE = re.compile(r"^tail@(\d+(?:\.\d+)?([eE][+-]?\d+)?)$")


@dataclass(frozen=True)
class MetricSelector:
    """One parsed selector.

    ``kind`` is ``"mean"``, ``"quantile"`` or ``"tail"``; ``value`` is
    the quantile level ``q`` in ``(0, 1)`` or the tail threshold ``t``
    (``None`` for ``"mean"``).
    """

    raw: str
    kind: str
    value: float | None = None


def parse_metric(selector: str) -> MetricSelector:
    """Parse one selector string, raising :class:`ValidationError`."""
    text = str(selector).strip()
    if text == "mean":
        return MetricSelector(raw=text, kind="mean")
    match = _QUANTILE_RE.match(text)
    if match:
        level = float(match.group(1)) / 100.0
        if not 0.0 < level < 1.0:
            raise ValidationError(
                f"quantile selector {text!r} must lie strictly in (p0, p100)")
        return MetricSelector(raw=text, kind="quantile", value=level)
    match = _TAIL_RE.match(text)
    if match:
        threshold = float(match.group(1))
        if not math.isfinite(threshold):
            raise ValidationError(
                f"tail selector {text!r} needs a finite threshold")
        return MetricSelector(raw=text, kind="tail", value=threshold)
    raise ValidationError(
        f"unknown metric selector {text!r}; expected 'mean', 'pNN' "
        "(e.g. 'p95', 'p99.9') or 'tail@t' (e.g. 'tail@2.5')")


def parse_metrics(selectors) -> tuple[MetricSelector, ...]:
    """Parse and validate a selector tuple (duplicates rejected)."""
    parsed = tuple(parse_metric(s) for s in selectors)
    seen: set[str] = set()
    for sel in parsed:
        if sel.raw in seen:
            raise ValidationError(f"duplicate metric selector {sel.raw!r}")
        seen.add(sel.raw)
    return parsed


def selector_columns(selectors) -> tuple[str, ...]:
    """Normalized column labels for a selector tuple (parse + rawize)."""
    return tuple(sel.raw for sel in parse_metrics(selectors))
