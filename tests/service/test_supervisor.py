"""Tests for the supervised worker pool: restarts, backoff, breaker.

The pool tests start real worker processes and drive them with the
``REPRO_SERVICE_CHAOS`` kill hook — a worker that SIGKILLs itself on a
chosen grid value is indistinguishable from an OOM-killed one.
"""

import json
import multiprocessing as mp
import sys
import threading
import time

import pytest

from repro.errors import ValidationError
from repro.scenario import get_scenario
from repro.serialize import scenario_to_dict
from repro.service.supervisor import (
    CHAOS_ENV,
    SupervisedPool,
    _start_context,
    solve_shard,
)


def shard_for(value):
    """A single-point fig2 shard — the cheapest real unit of work."""
    scenario = get_scenario("fig2", grid="quick")
    return scenario_to_dict(scenario.with_grid([value]))


class TestInline:
    def test_workers_zero_solves_inline(self):
        with SupervisedPool(0) as pool:
            results = pool.run_tasks([(0, shard_for(0.5), 0.5)])
        status, payload = results[0]
        assert status == "ok"
        point = payload["points"][0]
        assert point["value"] == 0.5
        assert point.get("error") is None

    def test_inline_matches_solve_shard(self):
        shard = shard_for(1.0)
        with SupervisedPool(0) as pool:
            _, payload = pool.run_tasks([(7, shard, 1.0)])[7]
        assert payload == solve_shard(shard)

    def test_expired_deadline_times_out_everything(self):
        tasks = [(i, shard_for(v), v) for i, v in enumerate([0.5, 1.0])]
        with SupervisedPool(0) as pool:
            results = pool.run_tasks(tasks,
                                     deadline=time.monotonic() - 1.0)
        assert all(status == "timeout"
                   for status, _ in results.values())

    def test_invalid_shard_becomes_error_result(self):
        with SupervisedPool(0) as pool:
            status, message = pool.run_tasks([(0, {}, None)])[0]
        assert status == "error"
        assert "ValidationError" in message

    def test_negative_workers_rejected(self):
        with pytest.raises(ValidationError, match="workers"):
            SupervisedPool(-1)


class TestStartMethod:
    def test_forks_only_on_linux_without_other_threads(self, monkeypatch):
        spawn = mp.get_context("spawn")
        monkeypatch.setattr(threading, "active_count", lambda: 2)
        assert _start_context(spawn) is spawn     # a serving daemon
        monkeypatch.setattr(threading, "active_count", lambda: 1)
        method = _start_context(spawn).get_start_method()
        assert method == ("fork" if sys.platform == "linux" else "spawn")


class TestPool:
    def test_pool_solve_matches_inline(self):
        shard = shard_for(0.5)
        with SupervisedPool(1) as pool:
            results = pool.run_tasks([(0, shard, 0.5)])
            stats = pool.stats()
        status, payload = results[0]
        assert status == "ok"
        assert payload == solve_shard(shard)    # byte-identical shard
        assert stats["restarts"] == 0

    def test_worker_ignores_faults_armed_in_caller(self):
        """A forked worker starts where a spawned one does: a fault
        armed in the calling process does not fire inside it."""
        from repro.errors import ConvergenceError
        from repro.resilience import faults

        with faults.inject("sweeps.point", raises=ConvergenceError):
            with SupervisedPool(1) as pool:
                status, payload = pool.run_tasks(
                    [(0, shard_for(0.5), 0.5)])[0]
        assert status == "ok"
        assert payload["points"][0].get("error") is None

    def test_sigkilled_worker_restarted_and_task_requeued(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, json.dumps(
            {"kill": {"value": 0.5, "marker_dir": str(tmp_path)}}))
        with SupervisedPool(1) as pool:
            results = pool.run_tasks([(0, shard_for(0.5), 0.5)])
            stats = pool.stats()
        status, payload = results[0]
        assert status == "ok"
        assert payload["points"][0].get("error") is None
        assert stats["restarts"] == 1           # exactly the chaos kill
        assert (tmp_path / "killed-0.5").exists()

    def test_task_kill_limit_turns_crash_loop_into_error(self,
                                                         monkeypatch):
        # No marker dir: the worker dies on this value every time.
        monkeypatch.setenv(CHAOS_ENV,
                           json.dumps({"kill": {"value": 0.5}}))
        with SupervisedPool(1, task_kill_limit=1, breaker_limit=10,
                            backoff_base=0.01) as pool:
            status, message = pool.run_tasks(
                [(0, shard_for(0.5), 0.5)])[0]
        assert status == "error"
        assert "killed 2 worker(s)" in message

    def test_breaker_opens_and_remaining_tasks_fail_fast(self,
                                                         monkeypatch):
        monkeypatch.setenv(CHAOS_ENV,
                           json.dumps({"kill": {"value": 0.5}}))
        with SupervisedPool(1, task_kill_limit=10, breaker_limit=2,
                            backoff_base=0.01) as pool:
            results = pool.run_tasks([(0, shard_for(0.5), 0.5),
                                      (1, shard_for(1.0), 1.0)])
            stats = pool.stats()
        for status, message in results.values():
            assert status == "error"
        assert "circuit breaker open" in results[1][1]
        assert stats["broken"] == 1
        # The acceptance bound: no crash loop past the breaker limit.
        assert stats["restarts"] <= 2
