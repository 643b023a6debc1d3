"""Consolidated solution quality reports.

One :class:`SolutionReport` per (algorithm, workload) pair collects every
number the paper's figures use: total bandwidth, RMS/max delay, load
spread, lbf, feasibility, runtime, and the LP fractional lower bound when
the solver provides one.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.problem import SASolution
from ..pubsub.events import EventDistribution
from .bandwidth import total_bandwidth
from .delay import max_delay, rms_delay
from .load import load_stdev

__all__ = ["SolutionReport", "evaluate_solution", "runtime_report_rows"]


@dataclass(frozen=True)
class SolutionReport:
    """Everything the evaluation section reports about one solution."""

    algorithm: str
    bandwidth: float
    rms_delay: float
    max_delay: float
    load_stdev: float
    lbf: float
    feasible: bool
    all_assigned: bool
    latency_ok: bool
    nesting_ok: bool
    fractional_bandwidth: float | None
    runtime_seconds: float | None

    def as_row(self) -> dict[str, object]:
        """Flat dict for table printing."""
        return {
            "algorithm": self.algorithm,
            "bandwidth": self.bandwidth,
            "rms_delay": self.rms_delay,
            "max_delay": self.max_delay,
            "load_stdev": self.load_stdev,
            "lbf": self.lbf,
            "feasible": self.feasible,
            "fractional": self.fractional_bandwidth,
            "runtime_s": self.runtime_seconds,
        }


def runtime_report_rows(result, domain_measure: float | None = None,
                        ) -> list[list[object]]:
    """Flatten a runtime result into ``[metric, value]`` report rows.

    ``result`` is a :class:`repro.runtime.RuntimeResult` (typed loosely
    to keep this module free of a runtime dependency).  The rows combine
    the batch-comparable counts with the runtime-only telemetry: queue
    peaks, drops, crash losses, failover migrations, and the outage
    windows captured as spans.
    """
    telemetry = result.telemetry
    counter = lambda name: telemetry.counter(name).value  # noqa: E731
    rows: list[list[object]] = [
        ["events published", result.num_events],
        ["broker entries", result.total_broker_entries],
        ["deliveries", result.total_deliveries],
        ["missed deliveries", result.total_missed],
        ["delivery rate", result.delivery_rate],
        ["mean delivery latency", result.mean_delivery_latency],
        ["p90 delivery latency",
         telemetry.histogram("delivery_latency").quantile(0.9)],
        ["simulated duration", result.duration],
        ["peak queue depth", int(result.queue_peaks.max())
         if result.queue_peaks.size else 0],
        ["backpressure drops", counter("events_dropped_backpressure")],
        ["link drops", counter("link_drops")],
        ["events lost to crashes", counter("events_lost_crashed")],
        ["failover migrations", counter("failover_migrations")],
    ]
    if domain_measure is not None:
        rows.append(["empirical Q(T)",
                     result.empirical_bandwidth(domain_measure)])
    for span in telemetry.spans:
        if span.name.startswith("outage"):
            rows.append([span.name,
                         f"[{span.start:g}, {span.end:g}]"
                         if span.end is not None else f"[{span.start:g}, ...)"])
    return rows


def evaluate_solution(name: str, solution: SASolution,
                      distribution: EventDistribution | None = None,
                      runtime_seconds: float | None = None) -> SolutionReport:
    """Verify a solution and compute every headline metric."""
    # Imported here so that ``import repro`` does not load repro.verify.
    from ..verify import (CHECK_ASSIGNMENT, CHECK_LATENCY, CHECK_NESTING,
                          verify_solution)
    report = verify_solution(solution.problem, solution)
    return SolutionReport(
        algorithm=name,
        bandwidth=total_bandwidth(solution.filters, distribution),
        rms_delay=rms_delay(solution.problem, solution.assignment),
        max_delay=max_delay(solution.problem, solution.assignment),
        load_stdev=load_stdev(solution.problem, solution.assignment),
        lbf=report.lbf,
        feasible=report.ok,
        all_assigned=report.count(CHECK_ASSIGNMENT) == 0,
        latency_ok=report.count(CHECK_LATENCY) == 0,
        nesting_ok=report.count(CHECK_NESTING) == 0,
        fractional_bandwidth=solution.fractional_bandwidth,
        runtime_seconds=runtime_seconds,
    )
