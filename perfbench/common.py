"""Shared pieces of the benchmark: the outcome record and small helpers."""

from __future__ import annotations

import os
import resource
from dataclasses import dataclass, field
from typing import Any

import numpy as np

#: Result files, spans and other run outputs (ignored by git).
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

@dataclass
class Outcome:
    """What one workload run measured and checked.

    ``failures`` holds one message per failed output check (the run is
    correct only when it is empty); ``failed`` of ``attempted`` counts
    the operations that failed.
    """

    setup_s: float
    peak_rss_mb: float
    latency_ms: float
    throughput_per_s: float
    attempted: int
    failed: int
    failures: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    detail: dict[str, Any] = field(default_factory=dict)

    def end_to_end(self) -> dict[str, float]:
        return {"setup_s": self.setup_s, "peak_rss_mb": self.peak_rss_mb,
                "latency_ms": self.latency_ms,
                "throughput_per_s": self.throughput_per_s}


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
