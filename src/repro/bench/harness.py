"""The experiment harness: run (workload, algorithm) matrices, cache nothing.

All benchmark scripts go through :func:`run_algorithms`, so every figure
and table is produced the same way: build the problem, run each named
algorithm, validate, and report the paper's metrics.  Sizes are set per
benchmark (see ``benchmarks/conftest.py``) and printed with the results,
because the reproduction is shape-based, not absolute-number-based.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Any

import numpy as np

from ..core.problem import SAProblem
from ..core.registry import get_algorithm
from ..metrics.report import SolutionReport, evaluate_solution

__all__ = ["AlgorithmRun", "run_algorithms", "average_reports",
           "json_output_dir", "write_bench_json", "runs_payload",
           "run_metadata"]

#: Environment variable naming the directory machine-readable benchmark
#: results are written into; ``pytest benchmarks/ --json DIR`` sets it.
JSON_ENV_VAR = "REPRO_BENCH_JSON"


@dataclass(frozen=True)
class AlgorithmRun:
    """One algorithm's solution and report on one problem."""

    name: str
    report: SolutionReport
    solution: object  # SASolution; kept loose to avoid heavy repr in benches


def run_algorithms(problem: SAProblem, names: Iterable[str],
                   kwargs: Mapping[str, Mapping[str, object]] | None = None,
                   ) -> list[AlgorithmRun]:
    """Run the named algorithms on one problem and evaluate each solution.

    ``kwargs`` optionally maps an algorithm name to extra keyword
    arguments (e.g. ``{"SLP1": {"seed": 3}}``).
    """
    kwargs = kwargs or {}
    runs = []
    for name in names:
        fn = get_algorithm(name)
        started = time.perf_counter()
        solution = fn(problem, **dict(kwargs.get(name, {})))
        elapsed = time.perf_counter() - started
        report = evaluate_solution(name, solution, runtime_seconds=elapsed)
        runs.append(AlgorithmRun(name=name, report=report, solution=solution))
    return runs


def run_metadata() -> dict[str, Any]:
    """Provenance block stamped into every ``BENCH_*.json`` payload.

    Records what produced the numbers: the repo commit (``"unknown"``
    outside a git checkout), a UTC timestamp, and the host's
    platform/python/CPU identity — enough to interpret absolute
    runtimes when comparing payloads across machines.
    """
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "git_commit": commit,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
    }


def json_output_dir() -> str | None:
    """Directory for ``BENCH_*.json`` results, or None when disabled.

    Enabled by ``pytest benchmarks/ --json DIR`` (or by exporting
    ``REPRO_BENCH_JSON=DIR`` directly).
    """
    return os.environ.get(JSON_ENV_VAR) or None


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars/arrays so ``json.dumps`` accepts bench payloads."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (np.floating, np.bool_)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON-serializable: {type(value).__name__}")


def write_bench_json(name: str, payload: Mapping[str, Any],
                     directory: str | None = None) -> str | None:
    """Write one benchmark's machine-readable result alongside its table.

    Emits ``BENCH_<name>.json`` into ``directory`` (default: the
    ``--json`` directory; no-op returning None when JSON output is off),
    so CI and scripts can consume benchmark runs without scraping the
    ASCII tables.
    """
    directory = directory if directory is not None else json_output_dir()
    if directory is None:
        return None
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"BENCH_{name}.json")
    body = dict(payload)
    body.setdefault("metadata", run_metadata())
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(body, fh, indent=2, default=_jsonable)
        fh.write("\n")
    return path


def runs_payload(runs: Iterable[AlgorithmRun]) -> list[dict[str, Any]]:
    """Flatten algorithm runs into JSON-ready report rows."""
    return [run.report.as_row() for run in runs]


def average_reports(reports: Iterable[SolutionReport]) -> dict[str, float]:
    """Average the headline metrics of several reports (Figure 6 style).

    The paper averages each algorithm's metrics over the four workload
    set #1 variants before plotting the comparison triangles.
    """
    reports = list(reports)
    if not reports:
        raise ValueError("no reports to average")
    count = float(len(reports))
    return {
        "bandwidth": sum(r.bandwidth for r in reports) / count,
        "rms_delay": sum(r.rms_delay for r in reports) / count,
        "load_stdev": sum(r.load_stdev for r in reports) / count,
        "lbf": sum(r.lbf for r in reports) / count,
        "feasible_fraction": sum(1.0 for r in reports if r.feasible) / count,
    }
