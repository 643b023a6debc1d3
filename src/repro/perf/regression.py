"""Perf-regression tracking against committed BENCH baselines.

Raw wall-clock comparisons across machines are noise — a committed
baseline recorded on one host would trip (or mask) regressions on a
faster or slower one.  Profile payloads therefore carry a *calibration*
score: the wall-clock of a fixed reference kernel (a containment-matrix
broadcast, the library's dominant primitive) measured on the same
machine right before the profiled run.  Comparisons divide each timing
by its payload's calibration, so the gate tracks the *algorithmic* cost
relative to what the hardware can do.

:func:`check_regression` compares a current profile payload against a
baseline and flags any stage (and the total) whose normalized cost grew
beyond the tolerance.

:class:`GatedRun` is the one driver every gated command shares
(``python -m repro profile``, ``benchmarks/bench_event_plane.py`` and
``benchmarks/bench_slp_scale.py``): :func:`add_gate_arguments` gives a
command the ``--json`` / ``--check-against`` / ``--tolerance`` (and
``--time-budget``) flags, and the run takes the calibration readings,
writes the payload and returns the gate's exit status — 3 on a
regression, 4 over the time budget.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = ["GatedRun", "RegressionReport", "StageComparison",
           "add_gate_arguments", "calibrate", "check_regression"]

#: Stages whose baseline share of the total is below this fraction are
#: reported but never flagged: sub-millisecond stages are all jitter.
MIN_BASELINE_SHARE = 0.10


def calibrate(repeats: int = 3) -> float:
    """Seconds for the fixed reference kernel (best of ``repeats``).

    The kernel is a seeded containment-matrix broadcast of fixed size —
    the same memory/compute mix as the library's hot paths.  Taking the
    minimum filters scheduler noise; the result only needs to be stable
    to within a few percent on one machine.
    """
    if repeats < 1:
        raise ValueError("repeats must be positive")
    rng = np.random.default_rng(0)
    lo = rng.random((384, 4))
    hi = lo + rng.random((384, 4))
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(10):
            lo_ok = np.all(lo[:, None, :] <= lo[None, :, :], axis=2)
            hi_ok = np.all(hi[None, :, :] <= hi[:, None, :], axis=2)
            (lo_ok & hi_ok).sum()
        best = min(best, time.perf_counter() - started)
    return best


@dataclass(frozen=True)
class StageComparison:
    """Normalized baseline-vs-current timing of one stage."""

    name: str
    baseline_normalized: float
    current_normalized: float
    ratio: float                 #: current / baseline (1.0 = unchanged)
    gated: bool                  #: large enough to participate in the gate
    regressed: bool

    def as_row(self) -> list[object]:
        return [self.name, round(self.baseline_normalized, 3),
                round(self.current_normalized, 3), round(self.ratio, 3),
                "REGRESSED" if self.regressed
                else ("ok" if self.gated else "(below gate floor)")]


@dataclass(frozen=True)
class RegressionReport:
    """Outcome of one baseline comparison."""

    comparisons: tuple[StageComparison, ...]
    tolerance: float

    @property
    def ok(self) -> bool:
        return not any(c.regressed for c in self.comparisons)

    @property
    def regressed_stages(self) -> list[str]:
        return [c.name for c in self.comparisons if c.regressed]


def _normalized_stages(payload: Mapping[str, Any]) -> dict[str, float]:
    calibration = float(payload["calibration_seconds"])
    if calibration <= 0:
        raise ValueError("calibration_seconds must be positive")
    stages = {str(stage["name"]): float(stage["seconds"]) / calibration
              for stage in payload.get("stages", [])}
    stages["total"] = float(payload["total_seconds"]) / calibration
    return stages


def check_regression(current: Mapping[str, Any],
                     baseline: Mapping[str, Any],
                     tolerance: float = 0.30) -> RegressionReport:
    """Compare two profile payloads; flag >``tolerance`` normalized growth.

    Both payloads must carry ``total_seconds``, ``calibration_seconds``,
    and a ``stages`` list (as produced by ``python -m repro profile``).
    The total is always gated; individual stages are gated only when
    their baseline share of the total is at least
    :data:`MIN_BASELINE_SHARE`, so micro-stages cannot flake the job.
    Stages present on only one side (renames, new instrumentation) are
    skipped.  Improvements never flag.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    base = _normalized_stages(baseline)
    cur = _normalized_stages(current)
    base_total = base["total"]

    comparisons = []
    for name in sorted(base, key=lambda n: -base[n]):
        if name not in cur:
            continue
        share = base[name] / base_total if base_total > 0 else 0.0
        gated = name == "total" or share >= MIN_BASELINE_SHARE
        ratio = (cur[name] / base[name]) if base[name] > 0 else float("inf")
        regressed = bool(gated and ratio > 1.0 + tolerance)
        comparisons.append(StageComparison(
            name=name, baseline_normalized=base[name],
            current_normalized=cur[name], ratio=ratio,
            gated=gated, regressed=regressed))
    return RegressionReport(comparisons=tuple(comparisons),
                            tolerance=tolerance)


def add_gate_arguments(parser: argparse.ArgumentParser, *, tolerance: float,
                       time_budget: bool = True) -> None:
    """Add the gate's flags to a command (see :class:`GatedRun`)."""
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the payload here as JSON")
    parser.add_argument("--check-against", default=None, metavar="BASELINE",
                        help="compare against a committed payload; exit 3 "
                             "on regression")
    parser.add_argument("--tolerance", type=float, default=tolerance,
                        help="allowed normalized growth per gated stage")
    if time_budget:
        parser.add_argument("--time-budget", type=float, default=None,
                            metavar="SECONDS",
                            help="exit 4 when the measured run exceeds "
                                 "this wall-clock")


class GatedRun:
    """One gated measurement: calibration readings, payload, exit status.

    Creating it loads ``--check-against``'s baseline (as
    :attr:`baseline`) and takes the first calibration reading; the caller
    then calls :meth:`reading` after each measured stage or repeat, and
    :meth:`finish` with its payload.  The host's speed drifts within a
    run, so the payload is normalized by the *median* reading.
    """

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.baseline: dict[str, Any] | None = None
        if args.check_against:
            with open(args.check_against, encoding="utf-8") as fh:
                self.baseline = json.load(fh)
        self.readings = [calibrate()]
        self._calibrating = 0.0
        self._started = time.perf_counter()

    def reading(self) -> None:
        """Take one calibration reading (its time is not the run's)."""
        started = time.perf_counter()
        self.readings.append(calibrate())
        self._calibrating += time.perf_counter() - started

    def finish(self, payload: dict[str, Any]) -> int:
        """Stamp, write and gate ``payload``; return 0, 3 or 4.

        ``payload`` needs ``total_seconds`` and ``stages`` (see
        :func:`check_regression`); this adds the calibration and the
        run's ``metadata``.
        """
        # repro.bench imports the solvers, which import repro.perf.
        from ..bench.harness import run_metadata
        from ..bench.tables import format_table

        elapsed = time.perf_counter() - self._started - self._calibrating
        calibration = float(np.median(self.readings))
        payload.update(calibration_seconds=calibration,
                       calibration_readings=self.readings,
                       metadata=run_metadata())
        print(f"calibration {calibration:.4f}s, median of "
              f"{len(self.readings)} readings")
        if self.args.json:
            with open(self.args.json, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2)
                fh.write("\n")
            print(f"payload written to {self.args.json}")

        status = 0
        if self.baseline is not None:
            regression = check_regression(payload, self.baseline,
                                          tolerance=self.args.tolerance)
            print(format_table(
                ["stage", "baseline(norm)", "current(norm)", "ratio",
                 "verdict"],
                [comparison.as_row() for comparison in regression.comparisons]))
            if not regression.ok:
                print("perf regression: "
                      + ", ".join(regression.regressed_stages), file=sys.stderr)
                status = 3
        budget = getattr(self.args, "time_budget", None)
        if budget is not None and elapsed > budget:
            print(f"error: the run took {elapsed:.1f}s, over the "
                  f"--time-budget gate ({budget:.1f}s)", file=sys.stderr)
            status = 4
        return status
