"""Tests for the command-line interface."""

import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import ENGINE_FLAGS, build_parser, main

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Every subcommand that evaluates a scenario shares the engine schema.
EVALUATING_SUBCOMMANDS = ("run", "solve", "figure", "optimize", "simulate")


def _subcommand_argv(command):
    """A minimal valid argv prefix for each evaluating subcommand."""
    return {
        "run": ["run", "fig4"],
        "solve": ["solve"],
        "figure": ["figure", "4"],
        "optimize": ["optimize"],
        "simulate": ["simulate"],
    }[command]


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.processors == 8
        assert args.empty_queue == "switch"
        assert args.policy is None

    @pytest.mark.parametrize("command", EVALUATING_SUBCOMMANDS)
    def test_policy_flag_parses_everywhere(self, command):
        argv = _subcommand_argv(command) + ["--policy", "weighted:2/1/1/1"]
        args = build_parser().parse_args(argv)
        assert args.policy == "weighted:2/1/1/1"

    def test_bad_policy_spec_exits_2(self, capsys):
        assert main(["solve", "--policy", "no-such-kind"]) == 2
        assert "ValidationError" in capsys.readouterr().err

    def test_bad_class_spec(self):
        with pytest.raises(SystemExit):
            main(["solve", "--class", "1,2"])


class TestSolve:
    def test_default_config_prints_report(self, capsys):
        assert main(["solve", "--heavy-traffic"]) == 0
        out = capsys.readouterr().out
        assert "class0" in out and "total N=" in out

    def test_custom_classes(self, capsys):
        rc = main(["solve", "--processors", "4",
                   "--class", "1,0.4,1,2,0.02",
                   "--class", "4,0.2,2,2,0.02"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "P=4" in out and "L=2" in out


class TestFigure:
    def test_figure_4_table(self, capsys):
        assert main(["figure", "4"]) == 0
        out = capsys.readouterr().out
        assert "service_rate" in out
        assert "N[class3]" in out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "7"])


class TestFigurePlot:
    def test_plot_flag_renders_curves(self, capsys):
        assert main(["figure", "4", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "N[class0]" in out
        assert "+--" in out     # plot frame


class TestOptimize:
    def test_optimize_small_system(self, capsys):
        rc = main(["optimize", "--processors", "2",
                   "--class", "1,0.5,1,2,0.1",
                   "--min", "0.5", "--max", "4.0", "--tol", "0.1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "optimal quantum mean" in out
        assert "converged=True" in out


class TestPolicyFlag:
    def test_solve_with_weighted_policy(self, capsys):
        rc = main(["solve", "--heavy-traffic",
                   "--policy", "weighted:2/1/1/1"])
        assert rc == 0
        assert "total N=" in capsys.readouterr().out

    def test_optimize_search_priority(self, capsys):
        rc = main(["optimize", "--search", "priority",
                   "--processors", "4",
                   "--class", "1,0.5,1,2,0.1",
                   "--class", "2,0.3,1.5,2,0.1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "optimal policy: priority" in out
        assert "total N=" in out


class TestSimulate:
    def test_simulate_with_compare(self, capsys):
        rc = main(["simulate", "--processors", "4",
                   "--class", "2,0.4,1,2,0.02",
                   "--horizon", "4000", "--compare"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "simulation:" in out
        assert "analytic comparison:" in out


class TestEngineFlagParity:
    """Every engine knob must be reachable from every subcommand.

    This is the regression guard for the historical drift where solve
    and optimize could not select --backend and simulate could not set
    --workers or the fixed-point tolerances: the flags now come from
    one shared schema (repro.cli.ENGINE_FLAGS), and this test walks
    the full flag x subcommand matrix.
    """

    SAMPLE = {
        "--backend": "dense", "--workers": "2", "--checkpoint": "cp",
        "--max-iterations": "50", "--fp-tol": "1e-7",
        "--heavy-traffic": None, "--solve-budget": "2.5", "--batch": "8",
        "--horizon": "500", "--seed": "7",
        "--replications": "3", "--budget": "9",
    }

    def test_schema_covers_engine_spec(self):
        from repro.scenario import engine_field_names
        assert {f for f, _, _ in ENGINE_FLAGS} <= set(engine_field_names())

    @pytest.mark.parametrize("command", EVALUATING_SUBCOMMANDS)
    @pytest.mark.parametrize("field,flag", [(f, fl) for f, fl, _ in
                                            ENGINE_FLAGS])
    def test_every_flag_parses_everywhere(self, command, field, flag):
        argv = _subcommand_argv(command) + [flag]
        if self.SAMPLE[flag] is not None:
            argv.append(self.SAMPLE[flag])
        args = build_parser().parse_args(argv)
        assert getattr(args, field) is not None

    @pytest.mark.parametrize("command", EVALUATING_SUBCOMMANDS)
    def test_flags_default_to_none(self, command):
        """Unset flags must stay None so scenario defaults win."""
        args = build_parser().parse_args(_subcommand_argv(command))
        for field, _, _ in ENGINE_FLAGS:
            assert getattr(args, field) is None

    def test_optimize_keeps_its_interval_tol(self):
        args = build_parser().parse_args(
            ["optimize", "--tol", "0.1", "--fp-tol", "1e-8"])
        assert args.search_tol == pytest.approx(0.1)
        assert args.tol == pytest.approx(1e-8)

    def test_simulate_reaches_solver_knobs(self, capsys):
        rc = main(["simulate", "--processors", "4",
                   "--class", "2,0.4,1,2,0.02", "--horizon", "1000",
                   "--fp-tol", "1e-6", "--backend", "dense", "--compare"])
        assert rc == 0
        assert "analytic comparison:" in capsys.readouterr().out


class TestRunSubcommand:
    def test_run_preset_matches_figure_output(self, capsys):
        assert main(["figure", "4"]) == 0
        figure_out = capsys.readouterr().out
        assert main(["run", "fig4"]) == 0
        run_out = capsys.readouterr().out
        assert run_out == figure_out

    def test_run_fig2_file_matches_figure_2_exactly(self, tmp_path, capsys):
        """The acceptance criterion: file-driven run == figure 2."""
        from repro.scenario import get_scenario
        from repro.serialize import save_scenario
        path = tmp_path / "fig2.json"
        save_scenario(get_scenario("fig2"), path)
        assert main(["figure", "2"]) == 0
        figure_out = capsys.readouterr().out
        assert main(["run", str(path)]) == 0
        assert capsys.readouterr().out == figure_out

    def test_run_unknown_scenario_exits_2(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_run_engine_override(self, capsys):
        rc = main(["run", "crosscheck-moderate", "--engine", "analytic"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "total N=" in out
        assert "simulation" not in out

    def test_run_flag_overrides_apply(self, tmp_path, capsys):
        path = str(tmp_path / "cp")
        assert main(["run", "fig4", "--checkpoint", path]) == 0
        capsys.readouterr()
        assert main(["run", "fig4", "--checkpoint", path]) == 0
        assert "point(s) resumed" in capsys.readouterr().err


class TestScenariosSubcommand:
    def test_listing_names_every_preset(self, capsys):
        from repro.scenario import scenario_names
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_named_export_is_loadable_json(self, capsys):
        from repro.scenario import get_scenario
        from repro.serialize import scenario_from_dict
        assert main(["scenarios", "fig3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert scenario_from_dict(data) == get_scenario("fig3")


class TestErrorHandling:
    UNSTABLE = ["solve", "--processors", "2", "--class", "1,5.0,1.0,2.0,0.01"]

    def test_repro_error_exits_2_with_one_line_message(self, capsys):
        assert main(self.UNSTABLE) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro-gang: UnstableSystemError:")
        assert len(captured.err.strip().splitlines()) == 1

    def test_traceback_flag_reraises(self):
        from repro.errors import UnstableSystemError
        with pytest.raises(UnstableSystemError):
            main(["--traceback"] + self.UNSTABLE)

    def test_checkpoint_mismatch_reported_readably(self, tmp_path, capsys):
        # A journal file from before checkpoints were store directories.
        path = tmp_path / "fig.jsonl"
        path.write_text('{"kind": "sweep-header", "parameter": "other"}\n')
        assert main(["figure", "4", "--checkpoint", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro-gang: ValidationError:")
        assert "not a directory" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_run_missing_scenario_file_exits_2(self, tmp_path, capsys):
        # Satellite regression: a bad path used to leak a raw
        # FileNotFoundError traceback (or worse, a misleading
        # unknown-preset listing).
        missing = tmp_path / "nope" / "scenario.json"
        assert main(["run", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-gang: ValidationError:")
        assert len(err.strip().splitlines()) == 1

    def test_run_missing_json_name_treated_as_file(self, capsys):
        # No path separator, but the .json suffix marks it as a file —
        # not a preset lookup.
        assert main(["run", "no-such-scenario.json"]) == 2
        err = capsys.readouterr().err
        assert "cannot read scenario file" in err

    def test_run_directory_exits_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(
            "repro-gang: ValidationError:")

    def test_run_corrupt_scenario_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "repro-scenario", "version":')
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-gang: ValidationError:")
        assert "not valid JSON" in err

    def test_non_finite_tail_selector_exits_2(self, capsys):
        # tail@1e400 parses to an infinite threshold; it used to exit 0
        # with an all-nan table and nothing on stderr.
        argv = ["run", "fig2", "--grid", "quick",
                "--metrics-select", "mean,tail@1e400"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro-gang: ValidationError:")
        assert len(captured.err.strip().splitlines()) == 1

    def test_huge_finite_tail_threshold_answers_zero(self, tmp_path, capsys):
        # theta * 1e20 is past scipy's Poisson quantile; every point used
        # to come back nan (means included) with exit 0.
        from repro.scenario import get_scenario
        from repro.serialize import save_scenario
        path = tmp_path / "point.json"
        save_scenario(get_scenario("fig2").with_grid([1.0]), path)
        assert main(["run", str(path),
                     "--metrics-select", "mean,tail@1e20"]) == 0
        out = capsys.readouterr().out
        table = out.split("# response-time metrics")[1].splitlines()
        header, row = table[1], table[3].split()
        assert header.count("tail@1e20[class") == 4
        assert "nan" not in out
        assert [float(v) for v in row[-4:]] == [0.0] * 4

    def test_run_bad_file_traceback_flag_reraises(self, tmp_path):
        from repro.errors import ValidationError
        with pytest.raises(ValidationError):
            main(["--traceback", "run", str(tmp_path / "missing.json")])


class TestServiceCLI:
    def test_request_store_one_shot_then_cached(self, tmp_path, capsys):
        from repro.scenario import get_scenario
        from repro.serialize import save_scenario
        path = tmp_path / "point.json"
        save_scenario(get_scenario("fig2").with_grid([0.5]), path)
        store = str(tmp_path / "store")
        assert main(["request", str(path), "--store", store]) == 0
        reply = json.loads(capsys.readouterr().out)
        assert reply["status"] == "ok"
        assert reply["solved_points"] == 1
        # The store persists across one-shot invocations.
        assert main(["request", str(path), "--store", store]) == 0
        assert json.loads(capsys.readouterr().out)["cached"] is True

    def test_serve_compact_on_start_flag(self):
        args = build_parser().parse_args(
            ["serve", "--store", "s", "--compact-on-start"])
        assert args.compact_on_start is True
        args = build_parser().parse_args(["serve", "--store", "s"])
        assert args.compact_on_start is False

    def test_request_requires_exactly_one_target(self):
        with pytest.raises(SystemExit):
            main(["request", "fig2"])

    def test_request_ping_needs_no_scenario(self, tmp_path, capsys):
        rc = main(["request", "--op", "ping",
                   "--store", str(tmp_path / "store")])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["op"] == "ping"

    def test_request_store_file_exits_2(self, tmp_path, capsys):
        from repro.obs import metrics
        path = tmp_path / "store.jsonl"
        path.write_text("")
        assert main(["request", "fig2", "--store", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro-gang: ValidationError:")
        assert "not a directory" in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        # The service that failed to open disarmed what it had armed.
        assert not metrics.enabled()

    def test_request_error_reply_exits_2(self, tmp_path, capsys):
        rc = main(["request", "no-such-preset",
                   "--store", str(tmp_path / "store")])
        assert rc == 2
        assert json.loads(capsys.readouterr().out)["status"] == "error"


class TestFigureCheckpoint:
    def test_figure_resumes_from_checkpoint(self, tmp_path, capsys):
        path = tmp_path / "fig4"
        assert main(["figure", "4", "--checkpoint", str(path)]) == 0
        first = capsys.readouterr().out
        assert path.is_dir()
        assert main(["figure", "4", "--checkpoint", str(path)]) == 0
        assert capsys.readouterr().out == first

    def test_figure_checkpoint_serves_daemon_request(self, tmp_path, capsys):
        """A CLI checkpoint is a service store: the daemon answers the
        same scenario from it without solving."""
        path = str(tmp_path / "fig4")
        assert main(["figure", "4", "--checkpoint", path]) == 0
        capsys.readouterr()
        assert main(["request", "fig4", "--store", path]) == 0
        reply = json.loads(capsys.readouterr().out)
        assert reply["status"] == "ok" and reply["cached"] is True

    @pytest.mark.skipif(sys.platform == "win32", reason="POSIX locks")
    def test_checkpoint_in_use_by_daemon_exits_2(self, tmp_path, capsys):
        path = str(tmp_path / "store")
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--store", path,
             "--workers", "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
            env={**os.environ, "PYTHONPATH": SRC})
        try:
            ready, _, _ = select.select([daemon.stdout], [], [], 120)
            assert ready, "the daemon printed no ready banner"
            assert json.loads(daemon.stdout.readline())["status"] == "ready"
            assert main(["figure", "4", "--checkpoint", path]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("repro-gang: ValidationError:")
            assert "in use by another process" in captured.err
        finally:
            daemon.stdin.close()
            daemon.wait(timeout=60)

    @pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals")
    def test_ctrl_c_prints_one_line_and_exits_130(self, tmp_path, capsys):
        """SIGINT to the process group, as Ctrl-C sends it, mid-sweep:
        one stderr line, exit 130, and the rerun resumes to the output
        of a plain run."""
        store = tmp_path / "fig4"
        argv = ["figure", "4", "--workers", "2", "--checkpoint", str(store)]
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": SRC}, start_new_session=True)
        try:
            deadline = time.monotonic() + 120
            # Substring, not JSON: the writer may be mid-line.
            while (not any('"kind":"point"' in seg.read_text()
                           for seg in store.glob("seg-*.jsonl"))
                   and proc.poll() is None and time.monotonic() < deadline):
                time.sleep(0.02)
            assert proc.poll() is None, "the sweep ended before a point"
            os.killpg(proc.pid, signal.SIGINT)
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        assert proc.returncode == 130
        assert err.splitlines() == ["repro-gang: interrupted"]
        assert main(["figure", "4"]) == 0
        plain = capsys.readouterr().out
        assert main(argv) == 0
        resumed = capsys.readouterr()
        assert resumed.out == plain
        assert "point(s) resumed" in resumed.err

    def test_ctrl_c_traceback_flag_reraises(self, monkeypatch):
        def interrupted(args):
            raise KeyboardInterrupt
        monkeypatch.setattr("repro.cli._cmd_solve", interrupted)
        assert main(["solve"]) == 130
        with pytest.raises(KeyboardInterrupt):
            main(["--traceback", "solve"])


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX pipes")
class TestStdoutReaderGone:
    """A reader that closes stdout early (``| head``, ``| grep -q``)
    ends every subcommand quietly with 128 + SIGPIPE."""

    @pytest.mark.parametrize("argv", [
        ["scenarios"],
        ["solve", "--heavy-traffic"],
        ["request", "fig2", "--store", "{store}"],
    ])
    def test_closed_pipe_exits_141_without_traceback(self, tmp_path, argv):
        argv = [a.format(store=tmp_path / "store") for a in argv]
        read_end, write_end = os.pipe()
        os.close(read_end)          # the reader is gone before any write
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", *argv], stdout=write_end,
                stderr=subprocess.PIPE, text=True, timeout=300,
                env={**os.environ, "PYTHONPATH": SRC})
        finally:
            os.close(write_end)
        assert proc.stderr == ""
        assert proc.returncode == 141

    def test_traceback_flag_reraises(self, monkeypatch):
        def reader_gone(args):
            raise BrokenPipeError
        monkeypatch.setattr("repro.cli._cmd_solve", reader_gone)
        with pytest.raises(BrokenPipeError):
            main(["--traceback", "solve"])


class TestObservabilityFlags:
    def test_trace_flag_writes_trace_file(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        assert main(["solve", "--heavy-traffic",
                     "--trace", str(trace)]) == 0
        capsys.readouterr()
        lines = trace.read_text().splitlines()
        assert '"trace-header"' in lines[0]
        assert any('"kind":"E"' in ln for ln in lines)
        assert any('"kind":"metrics"' in ln for ln in lines)

    def test_metrics_flag_prints_snapshot_to_stderr(self, capsys):
        assert main(["solve", "--heavy-traffic", "--metrics"]) == 0
        captured = capsys.readouterr()
        assert "class0" in captured.out          # report untouched
        assert "counters:" in captured.err
        assert "rsolve.solves" in captured.err

    def test_report_subcommand_renders_table(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        assert main(["figure", "2", "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "per-class, per-stage wall seconds:" in out
        assert "rsolve" in out
        assert "solver:" in out

    def test_parallel_trace_keeps_worker_stage_rows(self, tmp_path, capsys):
        """Workers trace into sidecars merged into the run's trace,
        so the report still has per-stage rows."""
        trace = tmp_path / "run.jsonl"
        assert main(["figure", "2", "--workers", "2",
                     "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert not list(tmp_path.glob("run.jsonl.w*"))  # sidecars merged
        assert main(["report", str(trace)]) == 0
        out = capsys.readouterr().out
        table = out.split("per-class, per-stage wall seconds:")[1]
        assert "rsolve" in table.split("\n\n")[0]

    def test_report_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.jsonl")]) == 2
        assert "no such trace" in capsys.readouterr().err

    def test_checkpoint_resume_summary_line(self, tmp_path, capsys):
        path = tmp_path / "fig4"
        assert main(["figure", "4", "--checkpoint", str(path)]) == 0
        first = capsys.readouterr()
        assert "resumed" not in first.err
        assert main(["figure", "4", "--checkpoint", str(path)]) == 0
        second = capsys.readouterr()
        assert second.out == first.out
        assert "point(s) resumed" in second.err
        assert second.err.startswith("repro-gang: checkpoint")
