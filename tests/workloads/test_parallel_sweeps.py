"""Parallel sweeps: ``workers > 1`` solves on the supervised pool.

:func:`repro.scenario.run` hands a swept scenario with ``workers > 1``
to the service's :class:`~repro.service.supervisor.SupervisedPool`
(worker processes), over a throw-away result store unless the engine
names a ``checkpoint`` directory.  Every point is an independent solve,
so the parallel run equals the serial one point for point.
"""

import json

import pytest

from repro.scenario import (
    EngineSpec,
    Scenario,
    SweepAxis,
    SystemSpec,
    canonical_bytes,
    run,
    run_result_to_dict,
)
from repro.service.store import ResultStore
from repro.service.supervisor import CHAOS_ENV

GRID = (2.0, 4.0, 8.0, 16.0)


def fig4(grid=GRID, **engine) -> Scenario:
    return Scenario(
        name="fig4-small",
        system=SystemSpec(preset="fig4",
                          axis=SweepAxis("service_rate", grid)),
        engine=EngineSpec(**engine))


@pytest.fixture(scope="module")
def serial():
    return run(fig4())


class TestParallelEqualsSerial:
    def test_points_bit_identical(self, serial):
        par = run(fig4(workers=2))
        assert par.class_names == serial.class_names
        assert par.points == serial.points
        assert par.resumed == 0                       # a fresh store

    def test_single_worker_is_serial_path(self, serial, monkeypatch):
        from repro.service import daemon

        def no_store(*args, **kwargs):
            raise AssertionError("workers=1 must not use the store")

        monkeypatch.setattr(daemon, "execute", no_store)
        par = run(fig4(workers=1))
        assert par.points == serial.points

    def test_parallel_checkpoint_resume(self, serial, tmp_path):
        cp = str(tmp_path / "cp")
        first = run(fig4(workers=2, checkpoint=cp))
        assert first.points == serial.points
        resumed = run(fig4(workers=2, checkpoint=cp))
        assert resumed.resumed == len(GRID)
        assert resumed.points == serial.points

    def test_killed_parallel_sweep_resumes_to_serial(self, serial, tmp_path,
                                                     monkeypatch):
        """A worker SIGKILLed mid-shard is replaced and its shard
        requeued: the run completes and equals the serial one."""
        markers = tmp_path / "markers"
        markers.mkdir()
        monkeypatch.setenv(CHAOS_ENV, json.dumps(
            {"kill": {"value": GRID[1], "marker_dir": str(markers)}}))
        par = run(fig4(workers=2))
        assert (markers / f"killed-{GRID[1]}").exists()
        assert par.points == serial.points

    def test_interrupted_parallel_sweep_resumes(self, serial, tmp_path,
                                                monkeypatch):
        """A SIGINT in the parent after the first stored point: the
        rerun serves what was stored and solves the rest."""
        cp = str(tmp_path / "cp")
        real_put = ResultStore.put_point

        def interrupted(self, key, value):
            if len(self) >= 1:
                raise KeyboardInterrupt
            return real_put(self, key, value)

        with monkeypatch.context() as mp:
            mp.setattr(ResultStore, "put_point", interrupted)
            with pytest.raises(KeyboardInterrupt):
                run(fig4(workers=2, checkpoint=cp))
        resumed = run(fig4(workers=2, checkpoint=cp))
        assert resumed.resumed == 1
        assert resumed.points == serial.points
        assert canonical_bytes(run_result_to_dict(resumed)) \
            == canonical_bytes(run_result_to_dict(serial))

    def test_error_points_recorded(self):
        par = run(fig4(grid=(2.0, 0.3), workers=2))
        assert par.points[0].error is None
        assert par.points[1].error is not None
        assert "UnstableSystemError" in par.points[1].error
