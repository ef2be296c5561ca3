"""Canonical content hashing of scenarios: the service's cache identity.

Two requests describe *the same computation* when their scenarios
agree on everything that can change the numbers — the system, the
grid, the engine's numerical knobs — regardless of how the JSON was
spelled (key order, float spellings that round-trip identically) and
regardless of knobs that only change *how* the run executes or what
gets reported (``workers``, ``checkpoint``, the output spec, the
scenario's display name).  :func:`scenario_key` distills a
:class:`~repro.scenario.spec.Scenario` down to that identity as a
SHA-256 over its canonical JSON bytes; the scenario service
(:mod:`repro.service`) dedupes requests and keys its persistent result
store with it.

Hash stability is load-bearing: a key must survive a
``Scenario -> dict -> JSON -> dict -> Scenario`` round-trip unchanged
(or a warm store would go cold on every restart), and distinct
scenarios — different presets, different grid tiers, different solver
tolerances — must never collide.  Both properties are pinned by the
hypothesis suite in ``tests/scenario/test_hashing.py``.

Point-level identity (:func:`point_key`) drops the sweep axis and
binds a single grid value instead, so a sweep's shards are cacheable
one by one: a request for a superset grid reuses every point an
earlier narrower request already solved.

The scheduling policy participates through the serialized system dict:
a non-default policy is part of the computation's identity (different
cycle, different numbers, different key), while the default
round-robin is normalized to *absent* by
:class:`~repro.scenario.spec.SystemSpec` — so every pre-policy key, and
with it the whole warm service store, is preserved bit for bit.
"""

from __future__ import annotations

import hashlib
import json

from repro.errors import ValidationError

__all__ = [
    "EXECUTION_ONLY_ENGINE_FIELDS",
    "semantic_scenario_dict",
    "canonical_bytes",
    "scenario_key",
    "point_key",
]

#: Engine knobs that change how a run executes, never what it
#: computes: they are stripped before hashing.
EXECUTION_ONLY_ENGINE_FIELDS = ("workers", "checkpoint", "batch_points")


def semantic_scenario_dict(scenario) -> dict:
    """The hashed subtree: a scenario dict reduced to result identity.

    Starts from the canonical serialized form
    (:func:`repro.serialize.scenario_to_dict`) and drops everything
    that cannot affect the computed numbers:

    * ``name`` / ``description`` — display only;
    * ``output`` — selects what is *reported*, not what is solved —
      with one exception: metric selectors beyond the default
      ``("mean",)`` make the engines compute per-class distribution
      statistics that land in the stored point payloads, so they
      *are* part of result identity.  They enter the hash only when
      non-default, keeping every pre-distribution key (and the whole
      warm service store) bit-for-bit intact;
    * ``schema`` / ``version`` — the store segments carry the schema
      version themselves, so a no-op version bump does not cold the
      cache;
    * execution-only engine knobs (:data:`EXECUTION_ONLY_ENGINE_FIELDS`)
      — a parallel checkpointed run computes the same numbers as a
      serial one, and a sweep's chunk width never changes a point.
    """
    from repro.serialize import scenario_to_dict

    data = scenario_to_dict(scenario)
    engine = {k: v for k, v in data["engine"].items()
              if k not in EXECUTION_ONLY_ENGINE_FIELDS}
    semantic = {"system": data["system"], "engine": engine}
    metrics = data.get("output", {}).get("metrics")
    if isinstance(metrics, (list, tuple)):
        # Only the v3 writer emits a selector list (and only for
        # non-default selectors); the legacy boolean stays unhashed.
        semantic["metrics"] = list(metrics)
    return semantic


def canonical_bytes(data: dict) -> bytes:
    """Canonical JSON encoding: sorted keys, no whitespace, UTF-8.

    ``json`` emits shortest-repr floats, so any value that survives a
    JSON round-trip encodes to identical bytes — key-order and
    whitespace differences in the *input* never reach the hash.
    """
    return json.dumps(data, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False).encode("utf-8")


def _digest(data: dict) -> str:
    return hashlib.sha256(canonical_bytes(data)).hexdigest()


def scenario_key(scenario) -> str:
    """Content hash of a scenario's result identity (64 hex chars)."""
    return _digest(semantic_scenario_dict(scenario))


def point_key(scenario, value: float | None) -> str:
    """Content hash of one grid point's result identity.

    The sweep axis is removed and the concrete ``value`` bound in its
    place, so the same point reached through different grids (or
    through no grid at all, for ``value=None`` on an unswept scenario)
    hashes identically.  ``value`` must lie on the scenario's axis when
    one exists.
    """
    data = semantic_scenario_dict(scenario)
    axis = data["system"].pop("axis", None)
    if value is None:
        if axis is not None:
            raise ValidationError(
                "point_key(value=None) is only valid for unswept scenarios")
        point: dict = {"point": None}
    else:
        if axis is None:
            raise ValidationError(
                f"scenario {scenario.name!r} has no sweep axis to take "
                f"value {value!r} on")
        point = {"parameter": axis["parameter"], "point": float(value)}
    return _digest({**data, **point})
