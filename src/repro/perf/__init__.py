"""repro.perf — profiling, caching, and perf-regression gates.

Three pillars, each usable on its own:

* :mod:`.profiler` — named per-stage wall-clock spans threaded through
  the SLP pipeline; near-zero cost when inactive, JSON-exportable when a
  :func:`profiled` block is active (``python -m repro profile``).
* :mod:`.cache` — a scoped, content-addressed memo for
  ``RectSet.containment_matrix`` / ``RectSet.volumes`` so FilterGen,
  LPRelax, the assignment passes, adjustment, and evaluation share the
  geometry they would otherwise recompute.
* :mod:`.regression` — calibration-normalized comparison of profile
  payloads against committed baselines (the CI perf-smoke gate).
"""

from .cache import GeometryCache, active_geometry_cache, geometry_cache
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
    "GeometryCache",
    "geometry_cache",
    "active_geometry_cache",
    "RegressionReport",
    "StageComparison",
    "calibrate",
    "check_regression",
]
