"""Seeded request traffic of the ``service`` workload.

The seed is the only source of variation in the benchmark: it picks the
single-point requests' parameters and which answered requests are
replayed warm.  The parameters are Latin-hypercube samples (one draw per
stratum of each axis, strata shuffled), so every seed sees the same
spread of loads and quanta and the cold solve cost barely moves between
seeds.

Every request is replayed warm exactly :data:`WARM_PER_COLD` times.  The
replays are interleaved with the cold requests rather than sent in one
sub-second burst, which a noisy host would otherwise catch in a single
fast or slow moment: the copies are shuffled, and each copy is sent
after a cold request drawn uniformly from its own request's onward.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

__all__ = ["COLD_POINTS", "WARM_PER_COLD", "CHECKED_POINTS", "Traffic",
           "service_traffic"]

#: Single-point ``fig23`` requests sent cold, before the two presets.
COLD_POINTS = 40
#: Warm replays of each request.
WARM_PER_COLD = 20
#: Cold points re-solved in-process to check the service's replies.
CHECKED_POINTS = 3
#: Load ``rho`` range (uniform) and quantum range (log-uniform).
RHO = (0.3, 0.75)
QUANTUM = (0.25, 6.0)


@dataclass(frozen=True)
class Traffic:
    """Everything the seed decides for one ``service`` run."""

    #: ``(rho, quantum_mean)`` of each cold single-point request.
    points: tuple[tuple[float, float], ...]
    #: ``warm_after[i]``: request indices replayed after cold request ``i``
    #: (each at most ``i``).
    warm_after: tuple[tuple[int, ...], ...]
    #: Indices into ``points`` checked against an in-process solve.
    checked: tuple[int, ...]


def _strata(rng: random.Random, n: int) -> list[float]:
    """One uniform draw in each of ``n`` equal strata of [0, 1), shuffled."""
    cells = list(range(n))
    rng.shuffle(cells)
    return [(c + rng.random()) / n for c in cells]


def service_traffic(seed: int, requests: int) -> Traffic:
    """The traffic for ``seed``; ``requests`` is the full cold request
    count (the single points plus whatever the workload appends)."""
    rng = random.Random(seed)
    u_rho = _strata(rng, COLD_POINTS)
    u_q = _strata(rng, COLD_POINTS)
    log_lo, log_hi = math.log(QUANTUM[0]), math.log(QUANTUM[1])
    points = tuple(
        (RHO[0] + (RHO[1] - RHO[0]) * a,
         math.exp(log_lo + (log_hi - log_lo) * b))
        for a, b in zip(u_rho, u_q))
    copies = [j for j in range(requests) for _ in range(WARM_PER_COLD)]
    rng.shuffle(copies)
    slots: list[list[int]] = [[] for _ in range(requests)]
    for j in copies:
        slots[rng.randrange(j, requests)].append(j)
    warm_after = tuple(tuple(s) for s in slots)
    checked = tuple(sorted(rng.sample(range(COLD_POINTS), CHECKED_POINTS)))
    return Traffic(points=points, warm_after=warm_after, checked=checked)
