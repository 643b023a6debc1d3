"""repro.perf — profiling and perf-regression gates.

Two pillars, each usable on its own:

* :mod:`.profiler` — named per-stage wall-clock spans threaded through
  the SLP pipeline; near-zero cost when inactive, JSON-exportable when a
  :func:`profiled` block is active (``python -m repro profile``).
* :mod:`.regression` — calibration-normalized comparison of profile
  payloads against committed baselines (the CI perf-smoke gate).
"""

from .profiler import Profiler, StageStat, active_profiler, profiled, span
from .regression import (
    RegressionReport,
    StageComparison,
    calibrate,
    check_regression,
)

__all__ = [
    "Profiler",
    "StageStat",
    "profiled",
    "span",
    "active_profiler",
    "RegressionReport",
    "StageComparison",
    "calibrate",
    "check_regression",
]
