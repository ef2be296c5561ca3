"""The scenario service daemon: dedupe, shard, solve, degrade, persist.

:class:`ScenarioService` is the transport-independent core — one
:meth:`~ScenarioService.handle` call per request — wrapped by two thin
front ends: :meth:`~ScenarioService.serve_stdio` (JSONL over
stdin/stdout, the daemon mode behind ``repro-gang serve``) and
:meth:`~ScenarioService.serve_http` (a stdlib ``ThreadingHTTPServer``).

A run request flows::

    request -> Scenario -> scenario_key -> full-result store hit?  yes: reply
        no: shard the grid -> point_key per value -> store hits fill in
            misses solved on the SupervisedPool under the request deadline
        -> clean points persisted as each shard completes
        -> result assembled in grid order
        -> full result persisted iff every point is clean -> reply

Everything after the full-result lookup is the module-level
:func:`execute`, which :func:`repro.scenario.run` also calls to run a
checkpointed (``--checkpoint DIR``) or parallel (``--workers N``) sweep
on a store and pool of its own.

Robustness semantics:

* **Graceful degradation** — when the per-request deadline expires
  mid-sweep, the completed prefix is returned as a partial result with
  ``status: "degraded"``; the missing grid values appear as explicit
  ``DeadlineExceeded`` error points.  Failed or degraded points are
  *never* persisted, so a later replay re-solves them cleanly.
* **Overload shedding** — both front ends bound their request queues at
  ``max_pending`` and answer overflow with a structured busy reply
  instead of queueing unboundedly.
* **Store discipline** — results are only ever appended through
  :class:`~repro.service.store.ResultStore`, so a SIGKILLed daemon
  loses at most a torn tail line, repaired on the next open; replaying
  the same requests reproduces byte-identical results (each sweep point
  is an independent solve, so a shard equals the corresponding point of
  a full-grid run bit for bit).
* **Adjacency-preserving shards** — when the scenario sets a chunk
  width (``engine.batch_points > 1``), cold points are grouped into
  shards of up to ``batch_points`` *consecutive* grid values (a
  store-hit gap splits the run), so each shard's points share one
  lockstep chunk; otherwise every shard is one point.  A point equals
  its single solve bit for bit whatever shard it lands in, so
  ``batch_points`` is not part of result identity
  (:func:`~repro.scenario.hashing.point_key`).

Every stage is observable: ``service.requests{status=...}``,
``service.shards{source=store|solve|error|timeout}``,
``service.request.elapsed``, plus the store/pool/worker metrics of the
sibling modules.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass

from repro.errors import ReproError, ValidationError
from repro.obs import log as obs_log
from repro.obs import metrics
from repro.obs import prom
from repro.obs import trace as obs_trace
from repro.obs.trace import request_scope, span
from repro.scenario import (
    OutputSpec,
    RunPoint,
    get_scenario,
    point_key,
    run_point_to_dict,
    scenario_key,
)
from repro.serialize import scenario_from_dict, scenario_to_dict
from repro.service import protocol
from repro.service.protocol import Request
from repro.service.store import ResultStore
from repro.service.supervisor import SupervisedPool

__all__ = ["ServiceConfig", "ScenarioService", "execute"]


@dataclass(frozen=True)
class ServiceConfig:
    """Everything a :class:`ScenarioService` needs to run."""

    store_dir: str
    workers: int = 0
    max_pending: int = 8
    default_timeout: float | None = None
    segment_max_bytes: int = 4 << 20
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    breaker_limit: int = 5
    breaker_window: float = 30.0
    task_kill_limit: int = 2
    trace: str | None = None
    compact_on_start: bool = False
    #: Structured JSON-lines event log (``serve --log FILE``); rotated
    #: by size (``log_max_bytes``, keeping ``log_backups`` old files).
    log: str | None = None
    log_max_bytes: int = 16 << 20
    log_backups: int = 3
    #: cProfile every worker task and emit hotspot records into the
    #: trace (``serve --profile-workers``).
    profile_workers: bool = False
    #: Ring-buffer depth of per-request summaries behind ``stats``.
    recent_requests: int = 100

    def __post_init__(self):
        if self.max_pending < 1:
            raise ValidationError(
                f"max_pending must be >= 1, got {self.max_pending}")
        if (self.default_timeout is not None
                and self.default_timeout <= 0):
            raise ValidationError(
                f"default_timeout must be > 0, got {self.default_timeout}")


class ScenarioService:
    """The transport-independent scenario service core."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.store: ResultStore | None = None
        self.pool: SupervisedPool | None = None
        self._armed_obs = False
        self._armed_log = False
        self._lock = threading.Lock()
        self.shutting_down = False
        self.started_mono: float | None = None
        self.started_wall: float | None = None
        #: Distinct service-assigned IDs: ``<client id>.<seq>`` — two
        #: requests reusing one client id still trace separately.
        self._rid_seq = itertools.count(1)
        #: status -> handled-request count (includes busy sheds).
        self.request_counts: dict[str, int] = {}
        #: Newest-last summaries of recent requests (``stats`` reply).
        self.recent: deque = deque(maxlen=config.recent_requests)

    # -- lifecycle ---------------------------------------------------------

    def open(self) -> "ScenarioService":
        cfg = self.config
        # Arm observability unless the embedding process already did:
        # cache-hit accounting (the chaos suite's "zero cold solves"
        # check) needs the metrics registry live.
        if obs_trace.current_tracer() is None and not metrics.enabled():
            from repro import obs
            obs.start(trace_path=cfg.trace, collect_metrics=True)
            self._armed_obs = True
        if cfg.log is not None and not obs_log.configured():
            obs_log.configure(cfg.log, max_bytes=cfg.log_max_bytes,
                              backups=cfg.log_backups)
            self._armed_log = True
        self.started_mono = time.monotonic()
        self.started_wall = time.time()
        try:
            self.store = ResultStore(cfg.store_dir,
                                     segment_max_bytes=cfg.segment_max_bytes)
        except BaseException:
            self.close()                # disarm what open() armed
            raise
        if cfg.compact_on_start:
            self.store.compact()
        tracer = obs_trace.current_tracer()
        self.pool = SupervisedPool(
            cfg.workers, backoff_base=cfg.backoff_base,
            backoff_cap=cfg.backoff_cap, breaker_limit=cfg.breaker_limit,
            breaker_window=cfg.breaker_window,
            task_kill_limit=cfg.task_kill_limit,
            trace_base=str(tracer.path) if tracer is not None else None,
            profile=cfg.profile_workers)
        obs_log.info("service.start", store_dir=str(cfg.store_dir),
                     workers=cfg.workers,
                     profile_workers=cfg.profile_workers,
                     trace=str(tracer.path) if tracer is not None else None)
        return self

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None
        # Fold worker trace sidecars in while the tracer is still open,
        # so one request reads as one timeline across pids.
        tracer = obs_trace.current_tracer()
        if tracer is not None:
            obs_trace.merge_worker_traces(tracer)
        if self.store is not None:
            self.store.close()
            self.store = None
        obs_log.info("service.stop",
                     requests={k: v for k, v
                               in sorted(self.request_counts.items())})
        if self._armed_obs:
            from repro import obs
            obs.stop()
            self._armed_obs = False
        if self._armed_log:
            obs_log.shutdown()
            self._armed_log = False

    def __enter__(self) -> "ScenarioService":
        return self.open()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- request handling --------------------------------------------------

    def handle_line(self, line: str) -> dict:
        """Decode and handle one JSONL request line; never raises."""
        try:
            request = protocol.decode_request(line)
        except ReproError as exc:
            self._count("error")
            obs_log.warn("request.reject", error=type(exc).__name__,
                         message=str(exc))
            return protocol.error_response(self._peek_id(line), exc)
        return self.handle(request)

    def handle(self, request: Request | dict) -> dict:
        """Serve one request; every failure becomes an error reply.

        Run requests execute inside a :func:`request_scope` carrying a
        service-assigned request ID (``<client id>.<seq>``): every span
        the daemon emits, every structured-log event, and — because the
        ID travels in the task tuples — every worker span for the
        request shares it.
        """
        try:
            if isinstance(request, dict):
                request = protocol.parse_request(request)
            if request.op == "ping":
                return protocol.pong_response(request.id)
            if request.op == "stats":
                return protocol.stats_response(request.id, self._stats())
            if request.op == "shutdown":
                self.shutting_down = True
                obs_log.info("service.shutdown_requested",
                             client_id=request.id)
                return protocol.shutdown_response(request.id)
            with self._lock:
                rid = f"{request.id or 'req'}.{next(self._rid_seq)}"
                with request_scope(rid):
                    response = self._handle_run(request)
                    self._note_request(rid, request, response)
                return response
        except ReproError as exc:
            return self._handle_error(request, exc)
        except Exception as exc:        # noqa: BLE001 — daemon must not die
            return self._handle_error(request, exc)

    def _handle_error(self, request, exc: Exception) -> dict:
        self._count("error")
        rid = request.id if isinstance(request, Request) else None
        obs_log.error("request.error", client_id=rid,
                      error=type(exc).__name__, message=str(exc))
        return protocol.error_response(rid, exc)

    def _count(self, status: str) -> None:
        metrics.inc("service.requests", status=status)
        self.request_counts[status] = (
            self.request_counts.get(status, 0) + 1)

    def _note_request(self, rid: str, request: Request,
                      response: dict) -> None:
        """Push one finished run into the recent-requests ring."""
        summary = {
            "request_id": rid,
            "client_id": request.id,
            "status": response.get("status"),
            "key": response.get("key"),
            "cached": response.get("cached"),
            "elapsed": response.get("elapsed"),
            "store_points": response.get("store_points"),
            "solved_points": response.get("solved_points"),
            "error_points": response.get("error_points"),
        }
        self.recent.append(summary)
        obs_log.info("request.done", **{k: v for k, v in summary.items()
                                        if k != "request_id"})

    @staticmethod
    def _peek_id(line: str) -> str | None:
        """Best-effort request id from an undecodable line."""
        try:
            data = json.loads(line)
            rid = data.get("id") if isinstance(data, dict) else None
            return rid if isinstance(rid, str) else None
        except (ValueError, AttributeError):
            return None

    def _stats(self) -> dict:
        health = self.health()
        return {
            "store": self.store.stats(),
            "pool": self.pool.stats(),
            "metrics": metrics.snapshot() if metrics.enabled() else {},
            "uptime_seconds": health["uptime_seconds"],
            "started": self.started_wall,
            "health": health,
            "requests": {
                "total": sum(self.request_counts.values()),
                "by_status": dict(sorted(self.request_counts.items())),
            },
            "recent": list(self.recent),
        }

    def health(self) -> dict:
        """Liveness summary behind ``GET /healthz`` (503 when degraded).

        Degraded means the service cannot currently make progress on a
        run request: the store or pool is closed, every worker slot's
        circuit breaker is open, or shutdown has been requested.
        """
        pool_stats = self.pool.stats() if self.pool is not None else None
        store_ok = self.store is not None
        pool_ok = (pool_stats is not None
                   and (pool_stats["workers"] == 0
                        or pool_stats["broken"] < pool_stats["workers"]))
        ok = store_ok and pool_ok and not self.shutting_down
        uptime = (time.monotonic() - self.started_mono
                  if self.started_mono is not None else 0.0)
        return {
            "status": "ok" if ok else "degraded",
            "uptime_seconds": uptime,
            "checks": {
                "store": "ok" if store_ok else "closed",
                "pool": ("closed" if pool_stats is None
                         else "ok" if pool_ok else "breaker_open"),
                "accepting": not self.shutting_down,
            },
        }

    def metrics_exposition(self) -> str:
        """The ``GET /metrics`` body: registry snapshot plus service
        gauges (health, uptime, pool and store state), rendered as
        Prometheus text by :func:`repro.obs.prom.render_exposition`."""
        snap = (metrics.snapshot() if metrics.enabled()
                else {"counters": {}, "gauges": {}, "histograms": {}})
        health = self.health()
        gauges = snap.setdefault("gauges", {})
        gauges["service.up"] = 1.0
        gauges["service.healthy"] = (
            1.0 if health["status"] == "ok" else 0.0)
        gauges["service.uptime_seconds"] = health["uptime_seconds"]
        if self.pool is not None:
            for k, v in self.pool.stats().items():
                if isinstance(v, (int, float)):
                    gauges[f"service.pool.{k}"] = float(v)
        if self.store is not None:
            for k, v in self.store.stats().items():
                if isinstance(v, (int, float)):
                    gauges[f"service.store.{k}"] = float(v)
        return prom.render_exposition(snap)

    # -- the run path ------------------------------------------------------

    def _build_scenario(self, request: Request):
        if request.preset is not None:
            scenario = get_scenario(request.preset, grid=request.grid)
        else:
            scenario = scenario_from_dict(request.scenario)
        if request.engine:
            scenario = scenario.with_engine(**request.engine)
        return scenario

    def _handle_run(self, request: Request) -> dict:
        t0 = time.monotonic()
        scenario = self._build_scenario(request)
        key = scenario_key(scenario)
        timeout = (request.timeout if request.timeout is not None
                   else self.config.default_timeout)
        deadline = None if timeout is None else t0 + timeout
        with span("service.request", key=key[:12],
                  scenario=scenario.name or "(inline)"):
            cached = self.store.get_result(key)
            if cached is not None:
                self._count("cached")
                metrics.observe("service.request.elapsed",
                                time.monotonic() - t0)
                return protocol.result_response(
                    request.id, key=key, result=cached, cached=True,
                    degraded=False, store_points=len(cached["points"]),
                    solved_points=0, error_points=0,
                    elapsed=time.monotonic() - t0)
            result, counts = execute(scenario, self.store, self.pool,
                                     deadline=deadline)
            response = protocol.result_response(
                request.id, key=key, result=result, cached=False,
                elapsed=time.monotonic() - t0, **counts)
        self._count(response["status"])
        metrics.observe("service.request.elapsed", time.monotonic() - t0)
        return response

    # -- front ends --------------------------------------------------------

    def serve_stdio(self, stdin=None, stdout=None) -> None:
        """JSONL daemon loop: requests on stdin, replies on stdout.

        Emits a ready banner first (clients block on it), then one
        reply line per request.  A reader thread keeps draining stdin
        so overload is *shed* — lines beyond ``max_pending`` queued
        requests get an immediate busy reply — rather than
        backpressured into the peer's pipe buffer.

        Intake is *fair*, not FIFO: queued lines are grouped by their
        client ID and served round-robin across clients (FIFO within
        each client), so one chatty client that stuffs the queue with
        a burst cannot starve a second client's single request — it is
        served after at most one of the burst's requests, not after
        all of them.
        """
        stdin = stdin if stdin is not None else sys.stdin
        stdout = stdout if stdout is not None else sys.stdout
        out_lock = threading.Lock()

        def emit(obj: dict) -> None:
            with out_lock:
                stdout.write(protocol.encode(obj))
                stdout.flush()

        emit(protocol.ready_banner(workers=self.config.workers,
                                   store_dir=str(self.config.store_dir)))
        intake = threading.Condition()
        #: client id -> FIFO of ``(enqueue time, line)``.
        queues: dict[str | None, deque] = {}
        #: Clients with queued work, in round-robin turn order.
        turn: deque = deque()
        state = {"total": 0, "eof": False}

        def reader() -> None:
            for line in stdin:
                if not line.strip():
                    continue
                with intake:
                    if state["total"] >= self.config.max_pending:
                        self._count("busy")
                        obs_log.warn("request.shed", front_end="stdio",
                                     pending=state["total"],
                                     limit=self.config.max_pending)
                        emit(protocol.busy_response(
                            self._peek_id(line), pending=state["total"],
                            limit=self.config.max_pending))
                        continue
                    cid = self._peek_id(line)
                    q = queues.get(cid)
                    if q is None:
                        q = queues[cid] = deque()
                        turn.append(cid)
                    q.append((time.monotonic(), line))
                    state["total"] += 1
                    intake.notify()
            with intake:
                state["eof"] = True
                intake.notify()

        def next_line():
            """The next request under round-robin fairness."""
            with intake:
                while state["total"] == 0 and not state["eof"]:
                    intake.wait()
                if state["total"] == 0:
                    return None
                cid = turn.popleft()
                q = queues[cid]
                item = q.popleft()
                if q:
                    turn.append(cid)    # more queued: back of the line
                else:
                    del queues[cid]
                state["total"] -= 1
                return item

        threading.Thread(target=reader, daemon=True,
                         name="repro-service-reader").start()
        while True:
            item = next_line()
            if item is None:
                break
            enqueued, line = item
            metrics.observe("service.queue.wait",
                            time.monotonic() - enqueued)
            response = self.handle_line(line)
            emit(response)
            if self.shutting_down:
                break

    def serve_http(self, host: str = "127.0.0.1", port: int = 0):
        """An HTTP front end over the same protocol (stdlib only).

        ``POST /`` takes one request object per body and returns the
        reply; ``GET /stats`` returns the stats reply, ``GET /metrics``
        the Prometheus exposition, and ``GET /healthz`` the health
        summary (200 ok / 503 degraded) — all unauthenticated.
        Concurrency beyond ``max_pending`` in-flight requests is shed
        with a 503 busy reply.  Returns the (already bound, not yet
        serving) ``ThreadingHTTPServer``; run it with
        ``serve_forever()`` and stop it with ``shutdown()``.
        """
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        service = self
        gate = threading.BoundedSemaphore(self.config.max_pending)

        class Handler(BaseHTTPRequestHandler):
            def _reply(self, code: int, payload: dict) -> None:
                body = protocol.encode(payload).encode("utf-8")
                self.send_response(code)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_POST(self):          # noqa: N802 — http.server API
                if not gate.acquire(blocking=False):
                    service._count("busy")
                    obs_log.warn("request.shed", front_end="http",
                                 limit=service.config.max_pending)
                    self._reply(503, protocol.busy_response(
                        None, pending=service.config.max_pending,
                        limit=service.config.max_pending))
                    return
                try:
                    length = int(self.headers.get("Content-Length", 0))
                    line = self.rfile.read(length).decode("utf-8")
                    response = service.handle_line(line)
                finally:
                    gate.release()
                code = (200 if response["status"] in ("ok", "degraded")
                        else 400)
                self._reply(code, response)
                if service.shutting_down:
                    threading.Thread(target=self.server.shutdown,
                                     daemon=True).start()

            def _reply_text(self, code: int, body: str,
                            content_type: str) -> None:
                data = body.encode("utf-8")
                self.send_response(code)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def do_GET(self):           # noqa: N802 — http.server API
                path = self.path.rstrip("/")
                if path in ("", "/stats"):
                    self._reply(200, protocol.stats_response(
                        "stats", service._stats()))
                elif path == "/metrics":
                    self._reply_text(200, service.metrics_exposition(),
                                     prom.CONTENT_TYPE)
                elif path == "/healthz":
                    health = service.health()
                    code = 200 if health["status"] == "ok" else 503
                    self._reply(code, health)
                else:
                    self._reply(404, {"status": "error",
                                      "error": "NotFound",
                                      "message": self.path})

            def log_message(self, *args):
                pass                    # stay quiet; obs covers it

        return ThreadingHTTPServer((host, port), Handler)


# -- the run path ----------------------------------------------------------
#
# Module-level so that :func:`repro.scenario.run` can drive a checkpointed
# or parallel sweep through the same store and pool logic as the daemon.


def _derived_budget(scenario, deadline: float | None,
                    cold_points: int) -> float | None:
    """Per-point solve budget carved out of the request deadline.

    When the request carries a deadline but the scenario sets no
    ``solve_budget`` of its own, each cold point gets an equal slice of
    the remaining time.  A single divergent solve then aborts inside
    its slice (one explicit error point) instead of silently eating the
    whole request's deadline and degrading every point queued behind
    it.  Point cache keys are computed from the *unbudgeted* scenario,
    so the derived budget never changes result identity — a
    budget-limited solve either finishes with the same numbers or
    fails and is not persisted.
    """
    if deadline is None or cold_points == 0:
        return None
    if scenario.engine.solve_budget is not None:
        return None                     # the scenario's own budget wins
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        return None                     # the pool times the points out
    return remaining / cold_points


def _plan_shards(scenario, misses: list) -> list[list]:
    """Group cold points into adjacency-preserving shards.

    ``misses`` is ``(grid index, value, point key)`` tuples in grid
    order.  Every point is its own shard unless
    ``engine.batch_points > 1``: then runs of *consecutive* grid
    indices are chunked up to that size, each run from its first point,
    and a store-hit gap splits the run.  Each shard is one lockstep
    chunk; the grouping never changes a point's numbers.
    """
    batch = int(getattr(scenario.engine, "batch_points", 0) or 0)
    size = batch if (batch > 1 and scenario.axis is not None) else 1
    chunks: list[list] = []
    run: list = []
    prev = None
    for item in misses:
        if run and (len(run) >= size or item[0] != prev + 1):
            chunks.append(run)
            run = []
        run.append(item)
        prev = item[0]
    if run:
        chunks.append(run)
    return chunks


def execute(scenario, store: ResultStore, pool: SupervisedPool, *,
            deadline: float | None = None) -> tuple[dict, dict]:
    """Serve ``scenario`` from ``store``, solving the misses on ``pool``.

    Every grid value is looked up by :func:`point_key`; the misses are
    cut into shards (:func:`_plan_shards`) and solved on ``pool``.  A
    shard's clean points are persisted the moment it completes, so an
    interrupted call (a deadline, a ``KeyboardInterrupt``, a killed
    process) loses only the shards in flight.  Failed and timed-out
    points are never persisted.  The full result is stored under
    :func:`scenario_key` only when every point is clean.

    Shards run with no ``workers``, ``checkpoint``, trace or
    solver-metrics output, so a worker's :func:`repro.scenario.run`
    solves in-process and never re-enters this function.

    Returns ``(result, counts)``: the deterministic result dict (the
    :func:`~repro.scenario.run.run_result_to_dict` form, points in grid
    order) and the ``degraded`` flag plus ``store_points`` /
    ``solved_points`` / ``error_points`` counts of the reply.
    """
    # Metric *selectors* survive the strip: they are part of result
    # identity (the stored points carry the columns they name).
    scenario = dataclasses.replace(
        scenario,
        engine=dataclasses.replace(scenario.engine,
                                   workers=None, checkpoint=None),
        output=OutputSpec(measures=scenario.output.measures,
                          metrics=scenario.output.metrics))
    values = (list(scenario.grid()) if scenario.axis is not None
              else [None])
    shards: dict[int, tuple[str, object]] = {}
    misses = []                         # (index, value, pk) in grid order
    for i, v in enumerate(values):
        pk = point_key(scenario, v)
        hit = store.get_point(pk)
        if hit is not None:
            shards[i] = ("store", hit)
            metrics.inc("service.shards", source="store")
        else:
            misses.append((i, v, pk))
    if misses:
        budget = _derived_budget(scenario, deadline, len(misses))
        tasks = []
        chunk_by_task: dict[int, list] = {}
        for chunk in _plan_shards(scenario, misses):
            shard = (scenario.with_grid([v for _, v, _ in chunk])
                     if scenario.axis is not None else scenario)
            if budget is not None:
                shard = shard.with_engine(solve_budget=budget)
            task_id = chunk[0][0]
            # The 4th element carries the request ID into the worker,
            # where it scopes every span the shard emits.
            tasks.append((task_id, scenario_to_dict(shard), chunk[0][1],
                          obs_trace.current_request_id()))
            chunk_by_task[task_id] = chunk

        def persist(task_id, status, payload):
            if status != "ok":
                return
            for k, (_, _, pk) in enumerate(chunk_by_task[task_id]):
                pt = payload["points"][k]
                if pt.get("error") is None:
                    store.put_point(pk, {**payload, "points": [pt]})

        outcomes = pool.run_tasks(tasks, deadline=deadline,
                                  on_result=persist)
        for task_id, chunk in chunk_by_task.items():
            status, payload = outcomes.get(
                task_id, ("timeout", "request deadline exceeded"))
            for k, (i, _, _) in enumerate(chunk):
                if status == "ok":
                    shards[i] = ("solve", {**payload,
                                           "points": [payload["points"][k]]})
                else:
                    shards[i] = (status, payload)
                metrics.inc("service.shards", source=shards[i][0])

    meta = next((payload for kind, payload in shards.values()
                 if kind in ("store", "solve")), None)
    points = []
    counts = {"degraded": False, "store_points": 0, "solved_points": 0}
    for i, v in enumerate(values):
        kind, payload = shards[i]
        if kind in ("store", "solve"):
            points.append(payload["points"][0])
            counts["store_points" if kind == "store" else "solved_points"] += 1
            continue
        if kind == "timeout":
            counts["degraded"] = True
            error = f"DeadlineExceeded: {payload}"
        else:
            error = str(payload)
        points.append(run_point_to_dict(
            RunPoint(value=v, error=error, converged=False)))
    result = {
        "engine": (meta["engine"] if meta is not None
                   else scenario.engine.engine),
        "parameter": scenario.parameter,
        "class_names": (list(meta["class_names"]) if meta is not None
                        else list(scenario.system.config_for(
                            values[0]).class_names)),
        "points": points,
    }
    metric_names = meta.get("metric_names") if meta is not None else None
    if metric_names is None and getattr(
            scenario.output, "wants_distributions", False):
        metric_names = scenario.output.metrics
    if metric_names:
        result["metric_names"] = list(metric_names)
    counts["error_points"] = sum(1 for pt in points if pt.get("error"))
    if not counts["degraded"] and counts["error_points"] == 0:
        store.put_result(scenario_key(scenario), result)
    return result, counts
