"""Supervised worker pool: restart, backoff, circuit breaker.

The daemon and parallel CLI sweeps (``--workers N``) solve their
shards here.  Workers die (OOM killers, segfaulting BLAS, operators)
and the caller must keep going.  :class:`SupervisedPool` owns one
process per slot, each with its own depth-one task queue so the
supervisor always knows exactly which shard a dead worker was holding:

* a worker that exits (or is SIGKILLed) mid-task has its in-flight
  shard **requeued**, up to ``task_kill_limit`` deaths per task — a
  shard that keeps killing workers comes back as an error result, not
  an infinite crash loop;
* a dead slot is restarted with **exponential backoff**
  (``backoff_base * 2^n``, capped), and a slot that accumulates
  ``breaker_limit`` crash-restarts within ``breaker_window`` seconds
  trips its **circuit breaker** and stays down; when every slot is
  broken the remaining tasks fail fast with a structured error;
* a ``deadline`` bounds :meth:`run_tasks` — what finished is returned,
  undispatched tasks come back ``("timeout", ...)``, and still-running
  workers are deliberately terminated and restarted (a deliberate
  termination does not count against the breaker).

``workers=0`` solves inline in the calling process — the degenerate
pool used by unit tests and one-shot CLI queries.

Chaos hooks: worker processes read the ``REPRO_SERVICE_CHAOS``
environment variable at startup (see :func:`chaos_from_env`) to arm
:mod:`repro.resilience.faults` injections and/or SIGKILL themselves on
a chosen grid value — exactly once, coordinated through ``O_EXCL``
marker files so a restarted worker does not die again on the same
shard.  The variable is unset in normal operation.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import queue as queue_mod
import signal
import sys
import threading
import time
from collections import deque

from repro.errors import ValidationError
from repro.obs import log as obs_log
from repro.obs import metrics
from repro.obs.trace import (current_tracer, ensure_worker_tracer,
                             request_scope, span)

__all__ = ["CHAOS_ENV", "SupervisedPool", "chaos_from_env", "solve_shard"]

#: Environment variable holding the chaos spec for worker processes.
CHAOS_ENV = "REPRO_SERVICE_CHAOS"


def solve_shard(shard: dict) -> dict:
    """Solve one scenario dict; returns its deterministic result dict.

    This is the unit of work a pool worker executes: typically a
    single-grid-point shard of a swept scenario, or an unswept scenario
    whole.  Per-point solver failures are recorded *inside* the result
    (the sweep driver records every failed point), so an exception
    escaping here means the shard as a whole could not run.
    """
    from repro.scenario import run, run_result_to_dict
    from repro.serialize import scenario_from_dict

    return run_result_to_dict(run(scenario_from_dict(shard)))


def chaos_from_env() -> dict | None:
    """Arm chaos behavior requested via :data:`CHAOS_ENV`, if any.

    The spec is JSON::

        {"faults": [{"site": "sweeps.point", "raises": "ConvergenceError",
                     "keys": [1.0], "times": 1}],
         "kill": {"value": 2.0, "marker_dir": "/tmp/chaos"}}

    ``faults`` entries are forwarded to
    :func:`repro.resilience.faults.arm` with the exception looked up by
    name in :mod:`repro.errors`.  The returned dict (or ``None``) holds
    the ``kill`` spec for :func:`_maybe_die`.
    """
    raw = os.environ.get(CHAOS_ENV)
    if not raw:
        return None
    cfg = json.loads(raw)
    from repro import errors as errors_mod
    from repro.resilience import faults

    for f in cfg.get("faults", ()):
        faults.arm(f["site"],
                   raises=getattr(errors_mod, f["raises"]),
                   keys=tuple(f["keys"]) if f.get("keys") else None,
                   times=f.get("times"))
    return cfg.get("kill")


def _maybe_die(kill_cfg: dict | None, value: float | None) -> None:
    """SIGKILL this worker on the chaos-chosen grid value.

    With a ``marker_dir``, at most once across all workers (``O_EXCL``
    coordination, so a restarted worker does not die again on the
    requeued shard); without one, every time — the crash-loop case the
    circuit breaker exists for.
    """
    if kill_cfg is None or value is None:
        return
    if float(value) != float(kill_cfg["value"]):
        return
    if kill_cfg.get("marker_dir"):
        marker = os.path.join(kill_cfg["marker_dir"],
                              f"killed-{float(kill_cfg['value'])}")
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return                      # already died here once
        os.close(fd)
    os.kill(os.getpid(), signal.SIGKILL)


def _profile_hotspots(profiler, top: int = 30) -> list[dict]:
    """Top-``top`` functions of one cProfile run, by tottime."""
    import pstats

    stats = pstats.Stats(profiler)
    hot = [{"func": f"{os.path.basename(fn)}:{line}:{name}",
            "calls": nc, "tottime": tt, "cumtime": ct}
           for (fn, line, name), (cc, nc, tt, ct, _callers)
           in stats.stats.items()]
    hot.sort(key=lambda h: h["tottime"], reverse=True)
    return hot[:top]


def _solve_traced(shard: dict, value, rid: str | None,
                  profile: bool) -> dict:
    """Solve one shard inside its request scope, optionally profiled.

    Emits a ``"profile"`` record (top hotspots, tagged with the request
    ID) into the worker's trace file when profiling is on; the parent
    merges them and ``repro report`` sums them into the hotspot table.
    """
    with request_scope(rid) if rid is not None else _NULL_CTX:
        with span("worker.task", value=value):
            if not profile:
                return solve_shard(shard)
            import cProfile

            profiler = cProfile.Profile()
            profiler.enable()
            try:
                return solve_shard(shard)
            finally:
                profiler.disable()
                tracer = current_tracer()
                if tracer is not None:
                    record = {"kind": "profile", "pid": os.getpid(),
                              "hotspots": _profile_hotspots(profiler)}
                    if rid is not None:
                        record["req"] = rid
                    tracer.emit(record)


class _NullCtx:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_CTX = _NullCtx()


def _worker_main(task_queue, result_queue, trace_base=None,
                 profile=False) -> None:
    """Worker loop: one task at a time, results keyed by task id.

    With ``trace_base`` set the worker arms its own ``.w<pid>`` tracer
    and metrics registry and emits a per-task metrics snapshot record,
    so the merged trace carries request-tagged worker spans (and, with
    ``profile``, cProfile hotspot records).
    """
    from repro.resilience import faults

    # Ctrl-C signals the whole process group; the caller handles it and
    # stops its workers with SIGTERM in close().
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # A forked worker inherits its caller's armed faults and metrics
    # registry (a daemon arms one); start where a spawned worker does.
    faults.disarm()
    kill_cfg = chaos_from_env()
    tracer = None
    if trace_base is not None:
        tracer = ensure_worker_tracer(trace_base)
        metrics.reset()
        metrics.enable()
    else:
        metrics.disable()
    while True:
        item = task_queue.get()
        if item is None:
            return
        task_id, shard, value = item[0], item[1], item[2]
        rid = item[3] if len(item) > 3 else None
        _maybe_die(kill_cfg, value)
        try:
            result_queue.put(
                (task_id, "ok", _solve_traced(shard, value, rid, profile)))
        except Exception as exc:        # noqa: BLE001 — report, don't die
            result_queue.put(
                (task_id, "error", f"{type(exc).__name__}: {exc}"))
        if tracer is not None:
            snap = metrics.snapshot()
            metrics.reset()
            record = {"kind": "metrics", "pid": os.getpid(),
                      "scope": "task", **snap}
            if rid is not None:
                record["req"] = rid
            tracer.emit(record)


def _start_context(default):
    """The context a worker process starts from: fork where it is safe.

    A forked worker starts with every module its caller imported; a
    spawned one spends ~1 s re-importing ``repro`` and scipy before
    it solves anything.  But a forked child inherits every lock in
    whatever state the moment of fork caught it, so fork only from a
    caller with no other threads (a CLI sweep).  A serving daemon has
    live threads (the stdio reader, HTTP handlers) — e.g. the reader
    thread blocks in readline() *holding* sys.stdin's buffer lock, and
    a forked child's multiprocessing bootstrap then deadlocks closing
    sys.stdin — so it spawns, as every caller does off Linux.  Native
    threads are not counted: the OpenBLAS that numpy wheels ship shuts
    its thread pool down around fork.
    """
    if sys.platform == "linux" and threading.active_count() == 1:
        return mp.get_context("fork")
    return default


class _Slot:
    """One supervised worker: process, queue, and failure bookkeeping."""

    def __init__(self, index: int, ctx):
        self.index = index
        self.ctx = ctx
        self.task_queue = None
        self.proc = None
        self.inflight = None            # (task_id, shard, value) or None
        self.restarts: list[float] = [] # crash-restart times (breaker)
        self.consecutive = 0            # consecutive crash-restarts
        self.not_before = 0.0           # backoff gate
        self.broken = False

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.is_alive()

    def start(self, result_queue, trace_base=None, profile=False) -> None:
        # A fresh queue per process: nothing a dead worker left unread
        # (or a lock it died holding) reaches its replacement.  A
        # SimpleQueue's put writes inline, so dispatching starts no
        # feeder thread that would turn the next start into a spawn.
        self.task_queue = self.ctx.SimpleQueue()
        self.proc = _start_context(self.ctx).Process(
            target=_worker_main,
            args=(self.task_queue, result_queue, trace_base, profile),
            daemon=True, name=f"repro-service-worker-{self.index}")
        self.proc.start()

    def dispatch(self, task) -> None:
        self.inflight = task
        self.task_queue.put(task)

    def stop(self) -> None:
        if self.proc is not None and self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=5.0)
        self.proc = None


class SupervisedPool:
    """A crash-tolerant pool of shard-solving worker processes."""

    def __init__(self, workers: int, *,
                 backoff_base: float = 0.05,
                 backoff_cap: float = 2.0,
                 breaker_limit: int = 5,
                 breaker_window: float = 30.0,
                 task_kill_limit: int = 2,
                 trace_base: str | None = None,
                 profile: bool = False):
        if workers < 0:
            raise ValidationError(f"workers must be >= 0, got {workers}")
        self.workers = workers
        #: Parent trace path workers sidecar onto (``<base>.w<pid>``),
        #: or ``None`` for untraced workers.
        self.trace_base = trace_base
        #: Whether workers cProfile each task (``serve --profile-workers``).
        self.profile = profile
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.breaker_limit = breaker_limit
        self.breaker_window = breaker_window
        self.task_kill_limit = task_kill_limit
        self.total_restarts = 0
        # Queues come from the spawn context, which both a forked and
        # a spawned worker can use (see _start_context).
        self._ctx = mp.get_context("spawn")
        self._result_queue = self._ctx.Queue() if workers else None
        self._slots = [_Slot(i, self._ctx) for i in range(workers)]

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        for slot in self._slots:
            if slot.alive:
                slot.task_queue.put(None)
        for slot in self._slots:
            slot.stop()

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def stats(self) -> dict:
        return {
            "workers": self.workers,
            "alive": sum(1 for s in self._slots if s.alive),
            "broken": sum(1 for s in self._slots if s.broken),
            "restarts": self.total_restarts,
        }

    # -- supervision internals ---------------------------------------------

    def _note_crash(self, slot: _Slot, now: float) -> None:
        """Book a crash against ``slot``; trip the breaker if looping."""
        slot.consecutive += 1
        slot.restarts = [t for t in slot.restarts
                         if now - t <= self.breaker_window]
        slot.restarts.append(now)
        self.total_restarts += 1
        metrics.inc("service.worker.crashes", worker=slot.index)
        obs_log.warn("worker.crash", worker=slot.index,
                     consecutive=slot.consecutive)
        if len(slot.restarts) >= self.breaker_limit:
            slot.broken = True
            metrics.inc("service.worker.breaker_trips", worker=slot.index)
            obs_log.error("worker.breaker_open", worker=slot.index,
                          restarts_in_window=len(slot.restarts),
                          window_s=self.breaker_window)
            return
        delay = min(self.backoff_cap,
                    self.backoff_base * (2 ** (slot.consecutive - 1)))
        slot.not_before = now + delay

    def _revive(self, slot: _Slot, now: float) -> bool:
        """Start ``slot`` if it is down, allowed, and past its backoff."""
        if slot.broken or slot.alive:
            return slot.alive
        if now < slot.not_before:
            return False
        slot.start(self._result_queue, self.trace_base, self.profile)
        metrics.inc("service.worker.starts", worker=slot.index)
        obs_log.debug("worker.start", worker=slot.index,
                      worker_pid=slot.proc.pid)
        return True

    def _reap(self, results: dict, pending: deque,
              kills: dict, now: float, on_result=None) -> None:
        """Requeue (or fail) the in-flight task of every dead worker."""
        for slot in self._slots:
            if slot.inflight is None or slot.alive:
                continue
            task = slot.inflight
            slot.inflight = None
            task_id = task[0]
            if task_id in results:      # finished just before dying
                self._note_crash(slot, now)
                continue
            kills[task_id] = kills.get(task_id, 0) + 1
            metrics.inc("service.task.worker_deaths")
            if kills[task_id] > self.task_kill_limit:
                results[task_id] = (
                    "error",
                    f"shard killed {kills[task_id]} worker(s); "
                    f"giving up (task_kill_limit={self.task_kill_limit})")
                obs_log.error("task.poisoned", task=task_id,
                              worker_deaths=kills[task_id])
                if on_result is not None:
                    on_result(task_id, *results[task_id])
            else:
                pending.appendleft(task)
                obs_log.warn("task.requeue", task=task_id,
                             worker=slot.index,
                             worker_deaths=kills[task_id])
            self._note_crash(slot, now)

    # -- the work loop -----------------------------------------------------

    def run_tasks(self, tasks, *, deadline: float | None = None,
                  on_result=None) -> dict:
        """Run ``(task_id, shard_dict, value[, request_id])`` tasks;
        map id -> outcome.

        Outcomes are ``("ok", result_dict)``, ``("error", message)`` or
        ``("timeout", message)``.  The call returns when every task has
        an outcome or the deadline passes; on deadline, tasks still in
        flight are abandoned (their workers deliberately restarted) and
        returned as timeouts.

        ``on_result(task_id, status, payload)`` is invoked from the
        calling thread as each task reaches a solved or errored
        outcome — *before* the whole batch returns — so the caller can
        persist completed shards while the sweep is still running.
        Deadline timeouts are not reported through the callback.
        """
        tasks = list(tasks)
        if self.workers == 0:
            return self._run_inline(tasks, deadline, on_result)
        with span("service.pool.run", tasks=len(tasks)):
            return self._run_pool(tasks, deadline, on_result)

    def _run_inline(self, tasks, deadline, on_result) -> dict:
        results: dict = {}
        for task in tasks:
            task_id, shard, value = task[0], task[1], task[2]
            rid = task[3] if len(task) > 3 else None
            if deadline is not None and time.monotonic() >= deadline:
                results[task_id] = ("timeout",
                                    "request deadline exceeded")
                continue
            try:
                results[task_id] = (
                    "ok", _solve_traced(shard, value, rid, self.profile))
            except Exception as exc:    # noqa: BLE001 — mirror the pool
                results[task_id] = (
                    "error", f"{type(exc).__name__}: {exc}")
            if on_result is not None:
                on_result(task_id, *results[task_id])
        return results

    def _run_pool(self, tasks, deadline, on_result) -> dict:
        pending = deque(tasks)
        results: dict = {}
        kills: dict = {}
        want = {t[0] for t in tasks}
        while len(results) < len(want):
            now = time.monotonic()
            if deadline is not None and now >= deadline:
                break
            self._reap(results, pending, kills, now, on_result)
            if all(s.broken for s in self._slots):
                for task in tasks:
                    results.setdefault(
                        task[0],
                        ("error", "worker pool circuit breaker open: "
                                  f"every slot crash-looped (limit "
                                  f"{self.breaker_limit} restarts per "
                                  f"{self.breaker_window}s)"))
                break
            for slot in self._slots:
                if not pending:
                    break
                if slot.inflight is None and self._revive(slot, now):
                    slot.dispatch(pending.popleft())
            self._drain(results, timeout=0.02, on_result=on_result)
        self._finish(tasks, results)
        return results

    def _drain(self, results: dict, *, timeout: float,
               on_result=None) -> None:
        try:
            task_id, status, payload = self._result_queue.get(
                timeout=timeout)
        except queue_mod.Empty:
            return
        while True:
            results[task_id] = (status, payload)
            if on_result is not None:
                on_result(task_id, status, payload)
            for slot in self._slots:
                if slot.inflight is not None and slot.inflight[0] == task_id:
                    slot.inflight = None
                    slot.consecutive = 0
            try:
                task_id, status, payload = self._result_queue.get_nowait()
            except queue_mod.Empty:
                return

    def _finish(self, tasks, results: dict) -> None:
        """Deadline cleanup: time out leftovers, recycle busy workers."""
        leftovers = [t for t in tasks if t[0] not in results]
        for task in leftovers:
            results[task[0]] = ("timeout", "request deadline exceeded")
        for slot in self._slots:
            if slot.inflight is not None and slot.inflight[0] in {
                    t[0] for t in leftovers}:
                # Deliberate recycle of a worker stuck past the
                # deadline; not a crash, so no breaker bookkeeping.
                slot.stop()
                slot.inflight = None
                metrics.inc("service.worker.recycled", worker=slot.index)
                obs_log.warn("worker.recycle", worker=slot.index,
                             reason="deadline")
