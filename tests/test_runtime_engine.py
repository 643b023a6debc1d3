"""Discrete-event runtime engine tests.

The correctness anchor: with zero faults, zero service time, and a
frozen population, the engine must reproduce the batch simulator
(:func:`simulate_dissemination`) *exactly* on the same seed — same
per-broker entry counts, same per-subscriber deliveries, no misses.
"""

import numpy as np
import pytest

from repro import (
    DisseminationEngine,
    RuntimeConfig,
    UniformEvents,
    offline_greedy,
    simulate_dissemination,
)
from repro.geometry import Rect
from repro.pubsub import SimulationResult, sample_event_stream


DIST = UniformEvents(Rect([0, 0], [100, 100]))


def make_engine(problem, solution, **config_kwargs):
    return DisseminationEngine(
        problem.tree, solution.filters, solution.assignment,
        problem.subscriptions, config=RuntimeConfig(**config_kwargs),
        subscriber_points=problem.subscriber_points)


class TestFaultFreeEquivalence:
    def test_matches_batch_simulator_exactly(self, tiny_problem):
        solution = offline_greedy(tiny_problem)
        batch = simulate_dissemination(
            tiny_problem.tree, solution.filters, solution.assignment,
            tiny_problem.subscriptions, DIST, np.random.default_rng(42),
            num_events=700,
            subscriber_points=tiny_problem.subscriber_points)
        engine = make_engine(tiny_problem, solution)
        result = engine.run(DIST, np.random.default_rng(42), num_events=700)

        assert np.array_equal(result.node_entries, batch.node_entries)
        assert np.array_equal(result.deliveries, batch.deliveries)
        assert np.array_equal(result.missed, batch.missed)
        assert result.total_missed == 0
        assert result.total_delivery_latency == pytest.approx(
            batch.total_delivery_latency)

    def test_sample_event_stream_replicates_rng_consumption(self):
        """The helper draws exactly like the batch simulator's chunking."""
        direct = DIST.sample(np.random.default_rng(3), 100)
        streamed = sample_event_stream(DIST, np.random.default_rng(3), 100,
                                       chunk_size=512)
        assert np.array_equal(direct, streamed)
        # Chunked consumption differs from one big draw once num_events
        # exceeds the chunk, and the helper must follow the chunked path.
        chunked = sample_event_stream(DIST, np.random.default_rng(3), 700,
                                      chunk_size=512)
        assert chunked.shape == (700, 2)
        assert np.array_equal(chunked[:512],
                              DIST.sample(np.random.default_rng(3), 512))

    @pytest.mark.parametrize("epoch_batch", [0, 512])
    def test_result_agrees_with_simulation(self, tiny_problem, epoch_batch):
        """A runtime result is a simulation result of the same stream."""
        solution = offline_greedy(tiny_problem)
        batch = simulate_dissemination(
            tiny_problem.tree, solution.filters, solution.assignment,
            tiny_problem.subscriptions, DIST, np.random.default_rng(0),
            num_events=200, subscriber_points=tiny_problem.subscriber_points)
        result = make_engine(tiny_problem, solution,
                             epoch_batch=epoch_batch).run(
            DIST, np.random.default_rng(0), num_events=200)
        assert isinstance(result, SimulationResult)
        for name in ("num_events", "total_broker_entries",
                     "total_deliveries", "total_missed", "delivery_rate"):
            assert getattr(result, name) == getattr(batch, name), name
        for name in ("node_entries", "deliveries", "missed"):
            assert np.array_equal(getattr(result, name),
                                  getattr(batch, name)), name
        for name in ("total_delivery_latency", "mean_delivery_latency"):
            assert getattr(result, name) == pytest.approx(
                getattr(batch, name)), name
        assert result.empirical_bandwidth(1e4) == batch.empirical_bandwidth(1e4)


class TestDeterminism:
    def test_same_seed_identical_telemetry(self, tiny_problem):
        solution = offline_greedy(tiny_problem)
        runs = []
        for _ in range(2):
            engine = make_engine(tiny_problem, solution, service_time=0.01,
                                 link_loss=0.05, trace_events=5)
            result = engine.run(DIST, np.random.default_rng(9),
                                num_events=300)
            runs.append(result)
        assert runs[0].telemetry.to_json() == runs[1].telemetry.to_json()
        assert np.array_equal(runs[0].deliveries, runs[1].deliveries)
        assert runs[0].duration == runs[1].duration


class TestQueueing:
    def test_zero_service_time_leaves_queues_empty(self, tiny_problem):
        solution = offline_greedy(tiny_problem)
        result = make_engine(tiny_problem, solution).run(
            DIST, np.random.default_rng(1), num_events=300)
        assert int(result.queue_peaks.max()) == 0

    def test_slow_service_builds_queues_without_losing_events(
            self, tiny_problem):
        solution = offline_greedy(tiny_problem)
        baseline = make_engine(tiny_problem, solution,
                               publish_interval=0.1).run(
            DIST, np.random.default_rng(5), num_events=300)
        # Service slower than the publish interval: queues must grow, yet
        # with unbounded capacity every delivery still happens.
        slow = make_engine(tiny_problem, solution,
                           publish_interval=0.1, service_time=0.5).run(
            DIST, np.random.default_rng(5), num_events=300)
        assert int(slow.queue_peaks.max()) > 0
        assert slow.total_deliveries == baseline.total_deliveries
        assert slow.total_missed == 0
        assert slow.duration > baseline.duration
        assert slow.mean_delivery_latency > baseline.mean_delivery_latency

    def test_bounded_queue_drops_under_backpressure(self, tiny_problem):
        solution = offline_greedy(tiny_problem)
        result = make_engine(tiny_problem, solution,
                             publish_interval=0.01, service_time=1.0,
                             queue_capacity=1).run(
            DIST, np.random.default_rng(5), num_events=300)
        drops = result.telemetry.counter("events_dropped_backpressure").value
        assert drops > 0
        assert result.total_missed > 0
        assert result.delivery_rate < 1.0


class TestValidation:
    def test_missing_filter_rejected(self, tiny_problem):
        solution = offline_greedy(tiny_problem)
        incomplete = dict(solution.filters)
        incomplete.pop(int(tiny_problem.tree.leaves[0]))
        with pytest.raises(ValueError):
            DisseminationEngine(tiny_problem.tree, incomplete,
                                solution.assignment,
                                tiny_problem.subscriptions)

    def test_bad_assignment_shape_rejected(self, tiny_problem):
        solution = offline_greedy(tiny_problem)
        with pytest.raises(ValueError):
            DisseminationEngine(tiny_problem.tree, solution.filters,
                                solution.assignment[:-1],
                                tiny_problem.subscriptions)

    @pytest.mark.parametrize("kwargs", [
        {"publish_interval": -1.0},
        {"service_time": -0.1},
        {"queue_capacity": 0},
        {"link_loss": 1.0},
        {"link_loss": -0.2},
        {"trace_events": -1},
        {"max_duration": 0.0},
        {"max_duration": -3.0},
    ])
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RuntimeConfig(**kwargs)

    def test_negative_event_count_rejected(self, tiny_problem):
        solution = offline_greedy(tiny_problem)
        with pytest.raises(ValueError):
            make_engine(tiny_problem, solution).run(
                DIST, np.random.default_rng(0), num_events=-1)

    @pytest.mark.parametrize("epoch_batch", [0, 64])
    def test_second_run_rejected(self, tiny_problem, epoch_batch):
        # A second run used to report its own num_events beside counts
        # summed over both runs, doubling the empirical bandwidth.
        solution = offline_greedy(tiny_problem)
        engine = make_engine(tiny_problem, solution, epoch_batch=epoch_batch)
        engine.run(DIST, np.random.default_rng(0), num_events=100)
        with pytest.raises(RuntimeError, match="already"):
            engine.run(DIST, np.random.default_rng(0), num_events=100)


class TestMaxDuration:
    def test_guard_aborts_and_flags_the_result(self, tiny_problem):
        solution = offline_greedy(tiny_problem)
        full = make_engine(tiny_problem, solution).run(
            DIST, np.random.default_rng(4), num_events=200)
        assert full.aborted is False

        capped = make_engine(tiny_problem, solution, max_duration=50.0).run(
            DIST, np.random.default_rng(4), num_events=200)
        assert capped.aborted is True
        assert capped.duration <= 50.0
        assert capped.total_deliveries < full.total_deliveries
        aborts = capped.telemetry.counter("aborted_max_duration").value
        assert aborts == 1

    def test_loose_guard_is_a_no_op(self, tiny_problem):
        solution = offline_greedy(tiny_problem)
        result = make_engine(tiny_problem, solution,
                             max_duration=10**9).run(
            DIST, np.random.default_rng(4), num_events=100)
        assert result.aborted is False


class TestResultAccessors:
    def test_zero_event_run_is_all_zero(self, tiny_problem):
        solution = offline_greedy(tiny_problem)
        result = make_engine(tiny_problem, solution).run(
            DIST, np.random.default_rng(0), num_events=0)
        assert result.total_deliveries == 0
        assert result.total_broker_entries == 0
        assert result.mean_delivery_latency == 0.0
        assert result.empirical_bandwidth(100 * 100) == 0.0
        assert result.delivery_rate == 1.0
        assert result.events_per_time() == 0.0

    def test_to_dict_and_dump_round_trip(self, tiny_problem, tmp_path):
        import json

        solution = offline_greedy(tiny_problem)
        result = make_engine(tiny_problem, solution).run(
            DIST, np.random.default_rng(6), num_events=120)
        payload = result.to_dict()
        assert payload["schema_version"] == 1
        assert payload["kind"] == "runtime_result"
        assert payload["num_events"] == 120
        assert payload["deliveries"] == result.deliveries.tolist()
        assert payload["telemetry"]["counters"]["deliveries"] == \
            result.total_deliveries
        # to_dict is deterministic; the file form adds provenance only.
        path = tmp_path / "result.json"
        result.dump(str(path))
        dumped = json.loads(path.read_text())
        assert dumped.pop("metadata").keys() == {
            "git_commit", "timestamp_utc", "host"}
        assert dumped == json.loads(json.dumps(payload))

    def test_trace_spans_recorded_and_closed(self, tiny_problem):
        solution = offline_greedy(tiny_problem)
        engine = make_engine(tiny_problem, solution, trace_events=3)
        result = engine.run(DIST, np.random.default_rng(2), num_events=50)
        spans = [s for s in result.telemetry.spans
                 if s.name.startswith("event[")]
        assert len(spans) == 3
        assert all(s.end is not None for s in spans)
