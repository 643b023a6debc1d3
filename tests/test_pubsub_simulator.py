"""End-to-end dissemination simulation tests.

The key invariants: with nested filters no delivery is ever missed, and
the empirical per-broker traffic matches the analytic filter measures.
"""

import numpy as np
import pytest

from repro import (
    SAParameters,
    SAProblem,
    UniformEvents,
    build_one_level_tree,
    filters_from_assignment,
    offline_greedy,
    simulate_dissemination,
)
from repro.pubsub import SimulationResult, sample_event_stream
from repro.geometry import Rect, RectSet
from repro.metrics import total_bandwidth
from repro.network import BrokerTree
from repro.pubsub import Filter


def make_problem(rng, m=60, brokers=4):
    points = rng.normal(size=(m, 3))
    broker_points = rng.normal(size=(brokers, 3))
    tree = build_one_level_tree(np.zeros(3), broker_points)
    centers = rng.uniform(10, 90, size=(m, 2))
    widths = rng.uniform(2, 10, size=(m, 2))
    subs = RectSet(centers - widths / 2, centers + widths / 2)
    params = SAParameters(alpha=3, max_delay=2.0, beta=2.0, beta_max=3.0)
    return SAProblem(tree, points, subs, params)


class TestSimulator:
    def test_no_misses_with_nested_filters(self, rng):
        problem = make_problem(rng)
        solution = offline_greedy(problem)
        dist = UniformEvents(Rect([0, 0], [100, 100]))
        result = simulate_dissemination(problem.tree, solution.filters,
                                        solution.assignment,
                                        problem.subscriptions, dist, rng,
                                        num_events=500)
        assert result.missed.sum() == 0
        assert result.num_events == 500

    def test_empirical_bandwidth_tracks_analytic(self, rng):
        problem = make_problem(rng, m=80)
        solution = offline_greedy(problem)
        dist = UniformEvents(Rect([0, 0], [100, 100]))
        result = simulate_dissemination(problem.tree, solution.filters,
                                        solution.assignment,
                                        problem.subscriptions, dist, rng,
                                        num_events=6000)
        analytic = total_bandwidth(solution.filters)
        empirical = result.empirical_bandwidth(dist.domain.volume())
        assert empirical == pytest.approx(analytic, rel=0.25)

    def test_broken_filter_causes_misses(self, rng):
        problem = make_problem(rng, m=30)
        solution = offline_greedy(problem)
        # Break one leaf's filter: nothing gets through to it.
        broken = dict(solution.filters)
        victim = int(solution.assignment[0])
        broken[victim] = Filter.empty(2)
        dist = UniformEvents(Rect([0, 0], [100, 100]))
        result = simulate_dissemination(problem.tree, broken,
                                        solution.assignment,
                                        problem.subscriptions, dist, rng,
                                        num_events=800)
        assert result.missed.sum() > 0

    def test_deliveries_match_subscription_size(self, rng):
        """A subscription covering the whole domain receives every event."""
        points = rng.normal(size=(2, 3))
        tree = build_one_level_tree(np.zeros(3), rng.normal(size=(2, 3)))
        subs = RectSet(np.array([[0.0, 0.0], [40.0, 40.0]]),
                       np.array([[100.0, 100.0], [41.0, 41.0]]))
        params = SAParameters(max_delay=5.0, beta=2.0, beta_max=2.0)
        problem = SAProblem(tree, points, subs, params)
        assignment = np.array(tree.leaves[:2])
        filters = filters_from_assignment(problem, assignment, rng)
        dist = UniformEvents(Rect([0, 0], [100, 100]))
        result = simulate_dissemination(tree, filters, assignment, subs,
                                        dist, rng, num_events=400)
        assert result.deliveries[0] == 400          # whole-domain subscriber
        assert result.deliveries[1] <= 400 * 0.01   # tiny subscriber
        assert result.missed.sum() == 0

    def test_node_entries_monotone_down_tree(self, rng):
        """A child can never see more events than its parent."""
        positions = np.array([[0.0, 0], [1.0, 0], [2.0, 0], [2.0, 1]])
        parents = np.array([-1, 0, 1, 1])
        tree = BrokerTree(positions, parents)
        points = rng.normal(size=(10, 2))
        centers = rng.uniform(20, 80, size=(10, 2))
        subs = RectSet(centers - 5, centers + 5)
        params = SAParameters(max_delay=5.0, beta=3.0, beta_max=4.0)
        problem = SAProblem(tree, points, subs, params)
        assignment = np.array([int(tree.leaves[i % 2]) for i in range(10)])
        filters = filters_from_assignment(problem, assignment, rng)
        dist = UniformEvents(Rect([0, 0], [100, 100]))
        result = simulate_dissemination(tree, filters, assignment, subs,
                                        dist, rng, num_events=1000)
        for node in range(1, tree.num_nodes):
            parent = int(tree.parents[node])
            if parent != 0:
                assert result.node_entries[node] <= result.node_entries[parent]

    def test_missing_filter_rejected(self, rng):
        problem = make_problem(rng, m=10)
        solution = offline_greedy(problem)
        incomplete = dict(solution.filters)
        incomplete.pop(int(problem.tree.leaves[0]))
        dist = UniformEvents(Rect([0, 0], [100, 100]))
        with pytest.raises(ValueError):
            simulate_dissemination(problem.tree, incomplete,
                                   solution.assignment,
                                   problem.subscriptions, dist, rng)

    def test_delivery_latency_with_positions(self, rng):
        problem = make_problem(rng, m=20)
        solution = offline_greedy(problem)
        dist = UniformEvents(Rect([0, 0], [100, 100]))
        result = simulate_dissemination(
            problem.tree, solution.filters, solution.assignment,
            problem.subscriptions, dist, rng, num_events=300,
            subscriber_points=problem.subscriber_points)
        if result.deliveries.sum() > 0:
            assert result.mean_delivery_latency > 0.0


class TestJsonExport:
    def test_to_dict_and_dump(self, rng, tmp_path):
        import json

        problem = make_problem(rng, m=20)
        solution = offline_greedy(problem)
        dist = UniformEvents(Rect([0, 0], [100, 100]))
        result = simulate_dissemination(
            problem.tree, solution.filters, solution.assignment,
            problem.subscriptions, dist, rng, num_events=200)
        payload = result.to_dict()
        assert payload["schema_version"] == 1
        assert payload["kind"] == "simulation_result"
        assert payload["deliveries"] == result.deliveries.tolist()
        assert payload["delivery_rate"] == result.delivery_rate
        path = tmp_path / "sim.json"
        result.dump(str(path))
        dumped = json.loads(path.read_text())
        assert dumped.pop("metadata").keys() == {
            "git_commit", "timestamp_utc", "host"}
        assert dumped == json.loads(json.dumps(payload))


class TestEmptyInputGuards:
    """Regression tests: the result accessors must not divide by zero."""

    @staticmethod
    def empty_result(num_subscribers=0):
        return SimulationResult(
            num_events=0,
            node_entries=np.zeros(3, dtype=np.int64),
            deliveries=np.zeros(num_subscribers, dtype=np.int64),
            missed=np.zeros(num_subscribers, dtype=np.int64),
            total_delivery_latency=0.0)

    def test_zero_events_accessors(self):
        result = self.empty_result(num_subscribers=5)
        assert result.total_broker_entries == 0
        assert result.empirical_bandwidth(100.0) == 0.0
        assert result.mean_delivery_latency == 0.0
        assert result.delivery_rate == 1.0

    def test_zero_subscribers_accessors(self):
        result = self.empty_result(num_subscribers=0)
        assert result.mean_delivery_latency == 0.0
        assert result.delivery_rate == 1.0

    def test_zero_event_simulation(self, rng):
        problem = make_problem(rng, m=10)
        solution = offline_greedy(problem)
        dist = UniformEvents(Rect([0, 0], [100, 100]))
        result = simulate_dissemination(
            problem.tree, solution.filters, solution.assignment,
            problem.subscriptions, dist, rng, num_events=0)
        assert result.node_entries.sum() == 0
        assert result.deliveries.sum() == 0
        assert result.delivery_rate == 1.0
        assert result.mean_delivery_latency == 0.0

    def test_zero_subscriber_simulation(self, rng):
        points = rng.normal(size=(0, 3))
        tree = build_one_level_tree(np.zeros(3), rng.normal(size=(2, 3)))
        subs = RectSet(np.empty((0, 2)), np.empty((0, 2)))
        params = SAParameters(max_delay=5.0, beta=2.0, beta_max=2.0)
        problem = SAProblem(tree, points, subs, params)
        assignment = np.empty(0, dtype=int)
        filters = filters_from_assignment(problem, assignment, rng)
        dist = UniformEvents(Rect([0, 0], [100, 100]))
        result = simulate_dissemination(tree, filters, assignment, subs,
                                        dist, rng, num_events=100)
        assert result.deliveries.shape == (0,)
        assert result.missed.shape == (0,)
        assert result.delivery_rate == 1.0
        assert result.mean_delivery_latency == 0.0

    def test_sample_event_stream_guards(self):
        dist = UniformEvents(Rect([0, 0], [100, 100]))
        rng = np.random.default_rng(0)
        assert sample_event_stream(dist, rng, 0).shape == (0, 2)
        with pytest.raises(ValueError):
            sample_event_stream(dist, rng, -1)
        with pytest.raises(ValueError):
            sample_event_stream(dist, rng, 10, chunk_size=0)
        # simulate_dissemination draws its own chunks, so it must refuse
        # the same counts itself.
        problem = make_problem(rng, m=10)
        solution = offline_greedy(problem)
        args = (problem.tree, solution.filters, solution.assignment,
                problem.subscriptions, dist, rng)
        with pytest.raises(ValueError, match="num_events must be "
                                             "non-negative"):
            simulate_dissemination(*args, num_events=-5)
        with pytest.raises(ValueError, match="chunk_size must be at "
                                             "least 1"):
            simulate_dissemination(*args, num_events=10, chunk_size=0)

    def test_sample_event_stream_empty_consistent(self):
        # The num_events == 0 path must go through distribution.sample
        # like every other path: same dtype as a non-empty draw, and no
        # generator-state drift relative to an explicit zero-size draw.
        dist = UniformEvents(Rect([0, 0], [100, 100]))
        empty = sample_event_stream(dist, np.random.default_rng(3), 0)
        direct = dist.sample(np.random.default_rng(3), 0)
        assert empty.shape == direct.shape == (0, 2)
        assert empty.dtype == direct.dtype
        nonempty = dist.sample(np.random.default_rng(3), 4)
        assert empty.dtype == nonempty.dtype

        rng_a = np.random.default_rng(11)
        rng_b = np.random.default_rng(11)
        sample_event_stream(dist, rng_a, 0)
        dist.sample(rng_b, 0)
        # Both generators advanced identically (zero-size draws included).
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        assert np.array_equal(rng_a.uniform(size=8), rng_b.uniform(size=8))
