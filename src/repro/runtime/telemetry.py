"""Runtime telemetry: counters, gauges, histograms, and trace spans.

The discrete-event engine emits everything through one
:class:`Telemetry` instance so a run's behaviour can be inspected after
the fact — delivered/lost/dropped counts, queue depth peaks, delivery
latency distributions, and spans marking intervals of interest (broker
outages, per-event dissemination traces).  All state is plain Python and
numpy, is fully deterministic given a deterministic event sequence, and
exports to a JSON-serializable dict (:meth:`Telemetry.to_dict`) or a
JSON string/file (:meth:`Telemetry.to_json` / :meth:`Telemetry.dump`).

Histograms are streaming: fixed bucket boundaries, so observing a value
is O(log #buckets) and memory does not grow with the number of
observations.  Quantiles are therefore bucket-resolution estimates.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = ["Counter", "Gauge", "Histogram", "TraceSpan", "Telemetry",
           "default_latency_buckets", "TELEMETRY_SCHEMA_VERSION"]

#: Version of the exported JSON layout; parsers key on it, and every
#: export carries it so serve/runtime/bench payloads read uniformly.
TELEMETRY_SCHEMA_VERSION = 1


class Counter:
    """A monotonically increasing integer counter."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str):
        self.name = name
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase; use a Gauge instead")
        self._value += int(amount)

    @property
    def value(self) -> int:
        return self._value

    def to_dict(self) -> int:
        return self._value

    def __repr__(self) -> str:
        return f"Counter({self.name}={self._value})"


class Gauge:
    """A point-in-time value tracking its last / min / max over the run."""

    __slots__ = ("name", "_last", "_min", "_max", "_updates")

    def __init__(self, name: str):
        self.name = name
        self._last: float | None = None
        self._min: float | None = None
        self._max: float | None = None
        self._updates = 0

    def set(self, value: float) -> None:
        value = float(value)
        self._last = value
        self._min = value if self._min is None else min(self._min, value)
        self._max = value if self._max is None else max(self._max, value)
        self._updates += 1

    @property
    def last(self) -> float | None:
        return self._last

    @property
    def max(self) -> float | None:
        return self._max

    @property
    def min(self) -> float | None:
        return self._min

    def to_dict(self) -> dict[str, Any]:
        return {"last": self._last, "min": self._min, "max": self._max,
                "updates": self._updates}

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self._last}, max={self._max})"


def default_latency_buckets() -> tuple[float, ...]:
    """Geometric bucket upper bounds covering this repo's latency scales.

    Network coordinates live in roughly ``[0, 100]^d``, so path latencies
    range from sub-1 to a few hundred; the spread covers both comfortably.
    """
    return tuple(0.5 * (2.0 ** k) for k in range(14))  # 0.5 .. 4096


class Histogram:
    """A fixed-bucket streaming histogram with count/sum/min/max.

    ``bounds`` are inclusive upper bucket boundaries; values above the
    last boundary land in a final overflow bucket.  Non-finite values
    raise ``ValueError``: a NaN would otherwise poison ``min``/``max``
    for the rest of the run.
    """

    __slots__ = ("name", "_bounds", "_counts", "_count", "_sum", "_min", "_max")

    def __init__(self, name: str, bounds: tuple[float, ...] | None = None):
        self.name = name
        bounds = tuple(float(b) for b in
                       (bounds if bounds is not None else default_latency_buckets()))
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram bounds must be strictly increasing")
        self._bounds = bounds
        self._counts = np.zeros(len(bounds) + 1, dtype=np.int64)
        self._count = 0
        self._sum = 0.0
        self._min: float | None = None
        self._max: float | None = None

    def observe(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"histogram {self.name!r}: non-finite value "
                             f"{value!r}")
        self._counts[bisect.bisect_left(self._bounds, value)] += 1
        self._count += 1
        self._sum += value
        self._min = value if self._min is None else min(self._min, value)
        self._max = value if self._max is None else max(self._max, value)

    def observe_many(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=float).ravel()
        if values.size == 0:
            return
        if not np.isfinite(values).all():
            raise ValueError(f"histogram {self.name!r}: non-finite values")
        idx = np.searchsorted(np.asarray(self._bounds), values, side="left")
        np.add.at(self._counts, idx, 1)
        self._count += int(values.size)
        self._sum += float(values.sum())
        lo, hi = float(values.min()), float(values.max())
        self._min = lo if self._min is None else min(self._min, lo)
        self._max = hi if self._max is None else max(self._max, hi)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        if self._count == 0:
            return 0.0
        return self._sum / self._count

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (upper bound of the bucket).

        Returns 0.0 for an empty histogram.
        """
        if not (0.0 <= q <= 1.0):
            raise ValueError("quantile must be in [0, 1]")
        if self._count == 0:
            return 0.0
        rank = q * self._count
        running = 0
        for k, c in enumerate(self._counts):
            running += int(c)
            if running >= rank:
                if k < len(self._bounds):
                    return self._bounds[k]
                return self._max if self._max is not None else 0.0
        return self._max if self._max is not None else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "count": self._count,
            "sum": self._sum,
            "mean": self.mean,
            "min": self._min,
            "max": self._max,
            "buckets": [{"le": b, "count": int(c)}
                        for b, c in zip(self._bounds, self._counts)]
                       + [{"le": None, "count": int(self._counts[-1])}],
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self._count}, mean={self.mean:.3g})"


@dataclass
class TraceSpan:
    """A named interval of simulated time with free-form attributes.

    ``end`` stays ``None`` while the span is open; the engine closes any
    still-open span at the end of a run.
    """

    name: str
    start: float
    end: float | None = None
    attributes: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float | None:
        if self.end is None:
            return None
        return self.end - self.start

    def close(self, end: float) -> None:
        if self.end is not None:
            raise ValueError(f"span {self.name!r} is already closed")
        if end < self.start:
            raise ValueError(f"span {self.name!r} cannot end before it starts")
        self.end = float(end)

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "start": self.start, "end": self.end,
                "duration": self.duration, "attributes": dict(self.attributes)}


class Telemetry:
    """A registry of named counters, gauges, histograms, and spans."""

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._spans: list[TraceSpan] = []

    # -- instrument accessors (create on first use) -------------------------

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        if name not in self._gauges:
            self._gauges[name] = Gauge(name)
        return self._gauges[name]

    def histogram(self, name: str,
                  bounds: tuple[float, ...] | None = None) -> Histogram:
        if name not in self._histograms:
            self._histograms[name] = Histogram(name, bounds)
        return self._histograms[name]

    def span(self, name: str, start: float, **attributes: Any) -> TraceSpan:
        """Open a new span; the caller closes it (or the engine does at end)."""
        span = TraceSpan(name=name, start=float(start), attributes=attributes)
        self._spans.append(span)
        return span

    @property
    def spans(self) -> list[TraceSpan]:
        return self._spans

    def open_spans(self) -> list[TraceSpan]:
        return [s for s in self._spans if s.end is None]

    def find_spans(self, name: str) -> list[TraceSpan]:
        return [s for s in self._spans if s.name == name]

    # -- export --------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": TELEMETRY_SCHEMA_VERSION,
            "counters": {k: c.to_dict() for k, c in sorted(self._counters.items())},
            "gauges": {k: g.to_dict() for k, g in sorted(self._gauges.items())},
            "histograms": {k: h.to_dict()
                           for k, h in sorted(self._histograms.items())},
            "spans": [s.to_dict() for s in self._spans],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def dump(self, path: str) -> None:
        """Write the JSON export with the bench payloads' provenance block.

        ``to_json`` stays deterministic (run-to-run comparable); the
        file form additionally records git commit, timestamp, and host —
        the same metadata ``BENCH_*.json`` carries — so persisted
        telemetry is interpretable long after the run.
        """
        from ..bench.harness import run_metadata  # lazy: avoids cycles
        payload = self.to_dict()
        payload["metadata"] = run_metadata()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=False)
            fh.write("\n")

    def __repr__(self) -> str:
        return (f"Telemetry(counters={len(self._counters)}, "
                f"gauges={len(self._gauges)}, "
                f"histograms={len(self._histograms)}, spans={len(self._spans)})")
