"""The scenario service: a supervised solver daemon with a result store.

PR 5 made experiments *addressable* — a frozen, JSON-round-trippable
:class:`~repro.scenario.spec.Scenario` — and this package makes them
*servable*: a long-running daemon that accepts scenario requests over a
JSONL stdin/stdout protocol (or an optional stdlib HTTP front end),
dedupes them by canonical content hash
(:func:`repro.scenario.hashing.scenario_key`) against a persistent,
crash-safe result store, and shards sweep grids across a supervised
worker pool.  Robustness is the organizing principle:

:mod:`repro.service.protocol`
    The wire format — requests, replies, and the canonical JSONL
    encoding shared by the stdio and HTTP front ends.
:mod:`repro.service.store`
    :class:`~repro.service.store.ResultStore` — append-only JSONL
    segments, each record flushed and fsync-ed; the index is rebuilt
    on open, torn tails are truncated and mid-segment corruption
    quarantined, never fatal.  Checkpointed CLI sweeps
    (``--checkpoint DIR``) write the same store format.
:mod:`repro.service.supervisor`
    :class:`~repro.service.supervisor.SupervisedPool` — per-slot worker
    processes with restart-on-crash, exponential backoff, and a
    crash-loop circuit breaker; a SIGKILLed worker's in-flight shard is
    requeued, bounded by a per-task kill limit.
:mod:`repro.service.daemon`
    :class:`~repro.service.daemon.ScenarioService` — request handling
    (hash, store lookup, then :func:`~repro.service.daemon.execute`:
    shard, solve, assemble, persist — the same function
    :func:`repro.scenario.run` calls for checkpointed and parallel
    sweeps), per-request
    deadlines with graceful degradation (a timed-out sweep returns the
    completed prefix flagged ``degraded``), overload shedding with a
    structured busy reply, and the ``serve_stdio`` / ``serve_http``
    front ends.

Everything is observable through :mod:`repro.obs` spans and metrics
(``service.requests``, ``service.shards``, ``service.store.*``,
``service.worker.*``), which is also how the chaos suite proves the
replay path: a warm second pass must show zero cold solves.
"""

from repro.service.daemon import ScenarioService, ServiceConfig
from repro.service.protocol import PROTOCOL_VERSION, Request
from repro.service.store import ResultStore
from repro.service.supervisor import SupervisedPool

__all__ = [
    "PROTOCOL_VERSION",
    "Request",
    "ResultStore",
    "ScenarioService",
    "ServiceConfig",
    "SupervisedPool",
]
