"""Telemetry primitive tests: counters, gauges, histograms, spans."""

import json

import numpy as np
import pytest

from repro.runtime import Counter, Gauge, Histogram, Telemetry, TraceSpan
from repro.runtime.telemetry import default_latency_buckets


class TestCounter:
    def test_increments(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)


class TestGauge:
    def test_tracks_last_min_max(self):
        g = Gauge("depth")
        for v in (3.0, 1.0, 7.0):
            g.set(v)
        assert g.last == 7.0
        assert g.min == 1.0
        assert g.max == 7.0

    def test_empty_gauge(self):
        g = Gauge("depth")
        assert g.last is None and g.min is None and g.max is None


class TestHistogram:
    def test_observe_and_quantile(self):
        h = Histogram("lat", bounds=(1.0, 2.0, 4.0))
        h.observe_many(np.array([0.5, 1.5, 1.6, 3.0, 10.0]))
        assert h.count == 5
        assert h.sum == pytest.approx(16.6)
        assert h.mean == pytest.approx(16.6 / 5)
        # Median falls in the (1, 2] bucket.
        assert 1.0 <= h.quantile(0.5) <= 2.0

    def test_empty_histogram(self):
        h = Histogram("lat")
        assert h.count == 0
        assert h.mean == 0.0
        assert h.quantile(0.9) == 0.0

    def test_default_buckets_are_increasing(self):
        buckets = default_latency_buckets()
        assert list(buckets) == sorted(buckets)
        assert buckets[0] == 0.5

    def test_to_dict_buckets(self):
        h = Histogram("lat", bounds=(1.0, 2.0))
        h.observe(0.5)
        d = h.to_dict()
        assert d["count"] == 1
        assert d["buckets"][0] == {"le": 1.0, "count": 1}

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_observe_rejects_non_finite(self, bad):
        h = Histogram("lat", bounds=(1.0, 2.0))
        h.observe(0.5)
        with pytest.raises(ValueError, match="non-finite"):
            h.observe(bad)
        # The rejected value left no trace.
        assert h.count == 1 and h.sum == 0.5
        assert h.to_dict()["min"] == 0.5 and h.to_dict()["max"] == 0.5

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_observe_many_rejects_non_finite(self, bad):
        h = Histogram("lat", bounds=(1.0, 2.0))
        with pytest.raises(ValueError, match="non-finite"):
            h.observe_many(np.array([1.0, bad]))
        # Nothing of the rejected batch was recorded.
        assert h.count == 0 and h.sum == 0.0
        assert h.to_dict()["min"] is None and h.to_dict()["max"] is None


class TestSpans:
    def test_span_lifecycle(self):
        t = Telemetry()
        span = t.span("outage", 10.0, node=3)
        assert t.open_spans() == [span]
        span.close(25.0)
        assert span.duration == 15.0
        assert t.open_spans() == []
        assert t.find_spans("outage") == [span]

    def test_double_close_rejected(self):
        span = TraceSpan("s", 0.0)
        span.close(1.0)
        with pytest.raises(ValueError):
            span.close(2.0)

    def test_close_before_start_rejected(self):
        with pytest.raises(ValueError):
            TraceSpan("s", 5.0).close(4.0)


class TestTelemetryRegistry:
    def test_instruments_are_singletons_by_name(self):
        t = Telemetry()
        assert t.counter("a") is t.counter("a")
        assert t.gauge("g") is t.gauge("g")
        assert t.histogram("h") is t.histogram("h")

    def test_json_round_trip(self, tmp_path):
        t = Telemetry()
        t.counter("deliveries").inc(3)
        t.gauge("depth").set(2.0)
        t.histogram("lat").observe(1.0)
        t.span("outage", 1.0, node=2).close(4.0)

        payload = json.loads(t.to_json())
        assert payload["schema_version"] == 1
        assert payload["counters"]["deliveries"] == 3
        assert payload["gauges"]["depth"]["last"] == 2.0
        assert payload["histograms"]["lat"]["count"] == 1
        assert payload["spans"][0]["name"] == "outage"

        # The file form additionally carries the bench-style provenance
        # block; everything else matches the in-memory export exactly.
        path = tmp_path / "telemetry.json"
        t.dump(str(path))
        dumped = json.loads(path.read_text())
        metadata = dumped.pop("metadata")
        assert dumped == payload
        assert set(metadata) == {"git_commit", "timestamp_utc", "host"}
