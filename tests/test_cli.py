"""Tests for the command-line interface."""

import statistics

import pytest

from repro.cli import build_parser, main


SMALL = ["--subscribers", "150", "--brokers", "5", "--seed", "3"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.workload == "googlegroups"
        assert args.algorithms == ["SLP1", "Gr*"]
        assert args.alpha == 3

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--algorithms", "wat"])

    def test_workload_choices(self):
        for wl in ("googlegroups", "rss", "grid"):
            args = build_parser().parse_args(["run", "--workload", wl])
            assert args.workload == wl

    def test_runtime_crash_spec(self):
        args = build_parser().parse_args(
            ["runtime", "--crash", "3:10", "--crash", "4:20:50"])
        assert [(o.node, o.start, o.end) for o in args.crash] == [
            (3, 10.0, None), (4, 20.0, 50.0)]

    def test_runtime_bad_crash_spec_rejected(self):
        # Malformed specs and the un-crashable publisher node 0.
        for spec in ("3", "x:10", "3:10:20:30", "3:oops", "0:10"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["runtime", "--crash", spec])


class TestCommands:
    def test_algorithms_lists_registry(self, capsys):
        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        assert "SLP1" in out
        assert "Gr*" in out

    def test_run_greedy(self, capsys):
        assert main(["run", *SMALL, "--algorithms", "Gr*"]) == 0
        out = capsys.readouterr().out
        assert "bandwidth" in out
        assert "Gr*" in out

    def test_run_multilevel(self, capsys):
        assert main(["run", *SMALL, "--brokers", "9", "--multilevel",
                     "--max-out-degree", "3", "--algorithms", "Gr"]) == 0
        assert "Gr" in capsys.readouterr().out

    def test_run_rss_workload(self, capsys):
        assert main(["run", *SMALL, "--workload", "rss",
                     "--algorithms", "Gr"]) == 0
        assert "feasible" in capsys.readouterr().out

    def test_simulate_no_misses(self, capsys):
        code = main(["simulate", *SMALL, "--algorithm", "Gr*",
                     "--events", "500"])
        out = capsys.readouterr().out
        assert code == 0
        assert "missed deliveries" in out

    def test_simulate_negative_events_exits_two(self, capsys):
        # A negative count is an input error, not an empty run.
        assert main(["simulate", *SMALL, "--events", "-1"]) == 2
        assert "num_events must be non-negative" in capsys.readouterr().err

    def test_dynamic_trajectory(self, capsys):
        assert main(["dynamic", *SMALL, "--horizon", "4",
                     "--reopt-every", "10"]) == 0
        out = capsys.readouterr().out
        assert "initial" in out
        assert "final" in out

    def test_beta_overrides(self, capsys):
        assert main(["run", *SMALL, "--beta", "2.0", "--beta-max", "2.5",
                     "--algorithms", "Gr"]) == 0

    def test_runtime_fault_free(self, capsys):
        assert main(["runtime", *SMALL, "--events", "300"]) == 0
        out = capsys.readouterr().out
        assert "events published" in out
        assert "delivery rate" in out

    def test_runtime_crash_with_failover(self, capsys, tmp_path):
        path = tmp_path / "telemetry.json"
        assert main(["runtime", *SMALL, "--events", "300",
                     "--crash", "2:50:200",
                     "--telemetry-json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "outage" in out
        assert "failover migrations" in out
        assert path.exists()

    def test_runtime_churn_replay(self, capsys):
        assert main(["runtime", *SMALL, "--events", "200",
                     "--churn-horizon", "4", "--reopt-every", "2"]) == 0
        assert "delivery rate" in capsys.readouterr().out

    def test_runtime_invalid_config_exits_cleanly(self, capsys):
        # Engine-level validation errors surface as CLI errors, not
        # tracebacks: exit code 2 and a one-line message on stderr.
        assert main(["runtime", *SMALL, "--link-loss", "1.5"]) == 2
        assert "link_loss" in capsys.readouterr().err
        assert main(["runtime", *SMALL, "--crash", "99:5"]) == 2
        assert "not a broker" in capsys.readouterr().err

    def test_runtime_max_events_guard(self, capsys):
        assert main(["runtime", *SMALL, "--events", "300",
                     "--max-events", "100"]) == 2
        err = capsys.readouterr().err
        assert "refusing an unbounded replay" in err
        # Within the guard the run proceeds normally.
        assert main(["runtime", *SMALL, "--events", "100",
                     "--max-events", "100"]) == 0

    def test_runtime_duration_guard_aborts(self, capsys, tmp_path):
        # 300 events at the default 1s publish spacing cannot drain
        # inside 2 simulated seconds, so the guard must fire.
        path = tmp_path / "result.json"
        assert main(["runtime", *SMALL, "--events", "300",
                     "--duration", "2.0", "--result-json", str(path)]) == 2
        captured = capsys.readouterr()
        assert "aborted at simulated time" in captured.err
        assert "--duration guard" in captured.err
        import json as json_mod

        payload = json_mod.loads(path.read_text())
        assert payload["aborted"] is True
        assert payload["schema_version"] == 1
        assert set(payload["metadata"]) == {"git_commit", "timestamp_utc",
                                            "host"}

    def test_runtime_result_json_export(self, capsys, tmp_path):
        path = tmp_path / "result.json"
        assert main(["runtime", *SMALL, "--events", "200",
                     "--result-json", str(path)]) == 0
        import json as json_mod

        payload = json_mod.loads(path.read_text())
        assert payload["kind"] == "runtime_result"
        assert payload["aborted"] is False
        assert payload["delivery_rate"] == 1.0
        assert sum(payload["deliveries"]) > 0


class TestVerifyCommand:
    def test_clean_run_exits_zero(self, capsys):
        assert main(["verify", *SMALL, "--algorithms", "Gr*",
                     "--events", "200", "--mc-samples", "40000"]) == 0
        out = capsys.readouterr().out
        assert "verdict" in out
        assert "oracle:matcher" in out
        assert "oracle:runtime" in out
        assert "FAILED" not in out

    def test_skip_oracles_runs_only_checks(self, capsys):
        assert main(["verify", *SMALL, "--algorithms", "Gr",
                     "--skip-oracles"]) == 0
        out = capsys.readouterr().out
        assert "oracle:" not in out

    def test_all_checks_mode(self, capsys):
        assert main(["verify", *SMALL, "--algorithms", "Gr*",
                     "--checks", "all", "--skip-oracles"]) == 0
        assert "load" in capsys.readouterr().out

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify", "--algorithms", "wat"])

    def test_unknown_corruption_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify", "--corrupt", "wat"])

    def test_corrupt_nesting_exits_two(self, capsys):
        assert main(["verify", *SMALL, "--algorithms", "Gr*",
                     "--corrupt", "nesting", "--skip-oracles"]) == 2
        captured = capsys.readouterr()
        assert "FAILED" in captured.out
        assert "nesting" in captured.err

    def test_corrupt_latency_exits_two(self, capsys):
        assert main(["verify", *SMALL, "--algorithms", "Gr*",
                     "--corrupt", "latency", "--skip-oracles"]) == 2
        assert "latency" in capsys.readouterr().err


class TestProfileCommand:
    TINY = ["--subscribers", "120", "--brokers", "4", "--seed", "3"]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["profile"])
        assert args.algorithm == "SLP1"
        assert args.repeats == 3
        assert args.tolerance == 0.30
        assert args.json is None
        assert args.check_against is None

    def test_profile_smoke(self, capsys):
        assert main(["profile", *self.TINY, "--repeats", "1",
                     "--algorithm", "Gr*"]) == 0
        out = capsys.readouterr().out
        assert "stage" in out
        assert "total" in out
        assert "calibration" in out

    def test_profile_json_payload(self, tmp_path, capsys):
        path = tmp_path / "profile.json"
        assert main(["profile", *self.TINY, "--repeats", "1",
                     "--algorithm", "SLP1", "--json", str(path)]) == 0
        import json as json_mod

        payload = json_mod.loads(path.read_text())
        assert payload["algorithm"] == "SLP1"
        assert payload["total_seconds"] > 0
        assert payload["calibration_seconds"] > 0
        # One reading before the repeats and one after each; the gate
        # normalizes by their median.
        readings = payload["calibration_readings"]
        assert len(readings) == 2
        assert payload["calibration_seconds"] == statistics.median(readings)
        names = {stage["name"] for stage in payload["stages"]}
        assert {"filtergen", "lp_solve", "assign"} <= names
        assert payload["metadata"]["host"]["python"]
        assert payload["metrics"]["feasible"] in (True, False)

    def test_check_against_passes_against_self(self, tmp_path, capsys):
        path = tmp_path / "baseline.json"
        assert main(["profile", *self.TINY, "--repeats", "1",
                     "--algorithm", "Gr*", "--json", str(path)]) == 0
        # Wide tolerance: a micro run's wall-clock jitters far more than
        # a real benchmark's; this asserts the gate plumbing, not timing.
        assert main(["profile", *self.TINY, "--repeats", "1",
                     "--algorithm", "Gr*", "--tolerance", "5.0",
                     "--check-against", str(path)]) == 0
        assert "ratio" in capsys.readouterr().out

    def test_check_against_regression_exits_three(self, tmp_path, capsys):
        import json as json_mod

        path = tmp_path / "baseline.json"
        assert main(["profile", *self.TINY, "--repeats", "1",
                     "--algorithm", "Gr*", "--json", str(path)]) == 0
        baseline = json_mod.loads(path.read_text())
        # Shrink the baseline 10x: the rerun now "regresses" far past 30%.
        baseline["total_seconds"] /= 10.0
        for stage in baseline["stages"]:
            stage["seconds"] /= 10.0
        path.write_text(json_mod.dumps(baseline))
        assert main(["profile", *self.TINY, "--repeats", "1",
                     "--algorithm", "Gr*",
                     "--check-against", str(path)]) == 3
        captured = capsys.readouterr()
        assert "REGRESSED" in captured.out
        assert "perf regression" in captured.err


class TestServeCommands:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 7411
        assert args.queue_capacity == 1024
        assert args.reopt_threshold == 64
        assert args.reopt_poll == 0.25
        assert args.reopt_algorithm == "SLP1"
        assert args.run_for is None

    @pytest.mark.parametrize("value", ["0", "-5", "many"])
    def test_serve_bad_queue_capacity_is_a_usage_error(self, capsys, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", *SMALL, "--port", "0", "--run-for", "0.1",
                  "--queue-capacity", value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "--queue-capacity" in err

    def test_serve_queue_capacity_passed_through(self, capsys):
        assert main(["serve", *SMALL, "--port", "0", "--run-for", "0.1",
                     "--queue-capacity", "7"]) == 0
        assert "queue capacity 7)" in capsys.readouterr().out

    def test_loadgen_parser_defaults(self):
        args = build_parser().parse_args(["loadgen"])
        assert args.active == 100
        assert args.publishers == 4
        assert args.events == 2000
        assert args.rate == 500.0
        assert args.min_delivery_rate == 0.0
        assert args.min_reopts == 0
        assert args.json is None

    def test_serve_run_for_smoke(self, capsys):
        assert main(["serve", *SMALL, "--port", "0",
                     "--run-for", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "serving" in out
        assert "active_subscribers" in out

    def test_loadgen_active_beyond_population_exits_two(self, capsys):
        assert main(["loadgen", *SMALL, "--active", "151"]) == 2
        assert "exceeds the population" in capsys.readouterr().err

    def test_loadgen_unreachable_daemon_exits_two(self, capsys):
        # Nothing listens on a fresh ephemeral port we immediately close.
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        free_port = probe.getsockname()[1]
        probe.close()
        assert main(["loadgen", *SMALL, "--active", "2", "--events", "1",
                     "--port", str(free_port)]) == 2
        assert "cannot reach the daemon" in capsys.readouterr().err
