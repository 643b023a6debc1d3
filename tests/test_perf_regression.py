"""Tests for perf-regression tracking (repro.perf.regression)."""

import argparse
import copy
import json
import time
from pathlib import Path

import pytest

from repro.perf import regression
from repro.perf.regression import (
    MIN_BASELINE_SHARE,
    GatedRun,
    add_gate_arguments,
    calibrate,
    check_regression,
)

EVENT_PLANE_BASELINE = (Path(__file__).resolve().parents[1] / "benchmarks"
                        / "baselines" / "BENCH_event_plane.json")


def payload(total, stages, calibration=1.0):
    """A minimal profile payload, as ``python -m repro profile`` emits."""
    return {
        "total_seconds": total,
        "calibration_seconds": calibration,
        "stages": [{"name": name, "calls": 1, "seconds": seconds}
                   for name, seconds in stages.items()],
    }


class TestCheckRegression:
    def test_identical_payloads_pass(self):
        base = payload(1.0, {"solve": 0.7, "assemble": 0.2})
        report = check_regression(base, base)
        assert report.ok
        assert report.regressed_stages == []

    def test_total_regression_flags(self):
        base = payload(1.0, {"solve": 0.8})
        cur = payload(1.5, {"solve": 0.8})
        report = check_regression(cur, base, tolerance=0.30)
        assert not report.ok
        assert "total" in report.regressed_stages

    def test_stage_regression_flags(self):
        base = payload(1.0, {"solve": 0.8, "assemble": 0.15})
        cur = payload(1.0, {"solve": 1.2, "assemble": 0.15})
        report = check_regression(cur, base, tolerance=0.30)
        assert "solve" in report.regressed_stages

    def test_micro_stage_never_flags(self):
        # A stage below MIN_BASELINE_SHARE of the total is jitter: even a
        # 10x blowup must not fail the gate (the total still guards it).
        small = MIN_BASELINE_SHARE / 2
        base = payload(1.0, {"solve": 0.9, "tiny": small})
        cur = payload(1.0, {"solve": 0.9, "tiny": small * 10})
        report = check_regression(cur, base, tolerance=0.30)
        assert report.ok
        tiny = next(c for c in report.comparisons if c.name == "tiny")
        assert not tiny.gated

    def test_improvement_never_flags(self):
        base = payload(2.0, {"solve": 1.5})
        cur = payload(0.5, {"solve": 0.2})
        assert check_regression(cur, base).ok

    def test_calibration_normalizes_machine_speed(self):
        # Twice the wall-clock on a machine whose calibration kernel is
        # also twice as slow is not a regression.
        base = payload(1.0, {"solve": 0.8}, calibration=0.1)
        cur = payload(2.0, {"solve": 1.6}, calibration=0.2)
        report = check_regression(cur, base, tolerance=0.05)
        assert report.ok

    def test_renamed_stage_skipped(self):
        base = payload(1.0, {"old_name": 0.9})
        cur = payload(1.0, {"new_name": 0.9})
        report = check_regression(cur, base)
        assert [c.name for c in report.comparisons] == ["total"]

    def test_tolerance_boundary(self):
        base = payload(1.0, {"solve": 0.8})
        exactly = payload(1.30, {"solve": 0.8})
        just_over = payload(1.31, {"solve": 0.8})
        assert check_regression(exactly, base, tolerance=0.30).ok
        assert not check_regression(just_over, base, tolerance=0.30).ok

    def test_invalid_inputs_rejected(self):
        base = payload(1.0, {"solve": 0.8})
        with pytest.raises(ValueError):
            check_regression(base, base, tolerance=-0.1)
        with pytest.raises(ValueError):
            check_regression(base, payload(1.0, {}, calibration=0.0))

    def test_rows_render(self):
        base = payload(1.0, {"solve": 0.8})
        report = check_regression(payload(2.0, {"solve": 1.6}), base)
        rows = [c.as_row() for c in report.comparisons]
        assert any("REGRESSED" in row for row in rows)


class TestCalibrate:
    def test_returns_positive_seconds(self):
        assert calibrate(repeats=1) > 0.0

    def test_invalid_repeats_rejected(self):
        with pytest.raises(ValueError):
            calibrate(repeats=0)


def gate_args(*argv):
    parser = argparse.ArgumentParser()
    add_gate_arguments(parser, tolerance=0.30)
    return parser.parse_args(list(argv))


@pytest.fixture
def readings(monkeypatch):
    """Stub the calibration kernel with a fixed sequence of readings."""
    sequence = iter([0.3, 0.1, 0.2, 0.5])
    monkeypatch.setattr(regression, "calibrate", lambda: next(sequence))


class TestGatedRun:
    def test_calibration_is_median_of_readings(self, readings):
        gate = GatedRun(gate_args())
        for _ in range(3):
            gate.reading()
        current = payload(1.0, {"solve": 0.8})
        assert gate.finish(current) == 0
        assert current["calibration_readings"] == [0.3, 0.1, 0.2, 0.5]
        assert current["calibration_seconds"] == 0.25
        assert current["metadata"]["host"]["python"]

    def test_json_payload_written(self, readings, tmp_path):
        path = tmp_path / "out.json"
        gate = GatedRun(gate_args("--json", str(path)))
        gate.reading()
        gate.finish(payload(1.0, {"solve": 0.8}))
        written = json.loads(path.read_text())
        assert written["total_seconds"] == 1.0
        assert written["calibration_seconds"] == 0.2

    def test_regressed_stage_exits_three(self, readings, tmp_path, capsys):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(payload(1.0, {"solve": 0.8},
                                           calibration=0.2)))
        gate = GatedRun(gate_args("--check-against", str(path)))
        gate.reading()
        assert gate.baseline["total_seconds"] == 1.0
        assert gate.finish(payload(1.0, {"solve": 1.6})) == 3
        captured = capsys.readouterr()
        assert "REGRESSED" in captured.out
        assert "perf regression: solve" in captured.err

    def test_over_time_budget_exits_four(self, readings, capsys):
        gate = GatedRun(gate_args("--time-budget", "0"))
        time.sleep(0.01)
        gate.reading()
        assert gate.finish(payload(1.0, {"solve": 0.8})) == 4
        assert "--time-budget" in capsys.readouterr().err

    def test_event_plane_baseline_gates_epoch_runtime(self):
        # The committed event-plane total counts only the batched stages,
        # so the epoch runtime's share is above the gate floor.
        baseline = json.loads(EVENT_PLANE_BASELINE.read_text())
        current = copy.deepcopy(baseline)
        stage = next(s for s in current["stages"]
                     if s["name"] == "runtime-epoch-512")
        current["total_seconds"] += stage["seconds"]
        stage["seconds"] *= 2.0
        report = check_regression(current, baseline, tolerance=0.50)
        assert report.regressed_stages == ["runtime-epoch-512"]
