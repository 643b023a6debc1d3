"""Tests for the greedy algorithms Gr, Gr*, and Gr-no-latency."""

import hashlib

import numpy as np
import pytest

from repro import (
    BrokerOutage,
    DisseminationEngine,
    FaultPlan,
    GoogleGroupsConfig,
    SAParameters,
    SAProblem,
    UniformEvents,
    apply_fault_plan,
    build_one_level_tree,
    generate_google_groups,
    multilevel_problem,
    offline_greedy,
    one_level_problem,
    online_greedy,
)
from repro.dynamic import DynamicPubSub
from repro.geometry import Rect, RectSet
from repro.network.tree import PUBLISHER
from repro.metrics import evaluate_solution
from repro.verify import (
    CHECK_ASSIGNMENT,
    CHECK_COMPLEXITY,
    CHECK_LATENCY,
    CHECK_NESTING,
    verify_solution,
)


def clustered_problem(rng, m=100, brokers=5, max_delay=3.0):
    points = rng.normal(size=(m, 3))
    broker_points = rng.normal(size=(brokers, 3))
    tree = build_one_level_tree(np.zeros(3), broker_points)
    anchor = rng.integers(0, 4, size=m) * 25.0
    centers = np.column_stack([anchor, anchor]) + rng.uniform(0, 5, size=(m, 2))
    subs = RectSet(centers, centers + rng.uniform(0.5, 3, size=(m, 2)))
    params = SAParameters(alpha=3, max_delay=max_delay, beta=1.5,
                          beta_max=2.0)
    return SAProblem(tree, points, subs, params)


class TestOnlineGreedy:
    def test_produces_valid_solution(self, rng):
        problem = clustered_problem(rng)
        solution = online_greedy(problem)
        report = verify_solution(problem, solution,
                                 {CHECK_ASSIGNMENT, CHECK_NESTING,
                                  CHECK_COMPLEXITY, CHECK_LATENCY})
        assert report.ok, report.summary()

    def test_assigned_subscriptions_covered(self, rng):
        problem = clustered_problem(rng)
        solution = online_greedy(problem)
        for j in range(problem.num_subscribers):
            leaf = int(solution.assignment[j])
            assert solution.filters[leaf].contains_subscription(
                problem.subscriptions.rect(j))

    def test_latency_respected_when_enabled(self, rng):
        problem = clustered_problem(rng, max_delay=0.4)
        solution = online_greedy(problem)
        delays = problem.delays(solution.assignment)
        assert (delays <= 0.4 + 1e-6).all()

    def test_no_latency_variant_can_violate(self, rng):
        problem = clustered_problem(rng, max_delay=0.05)
        solution = online_greedy(problem, respect_latency=False)
        assert solution.info["algorithm"] == "Gr-no-latency"
        # With clustered interests and a tiny delay bound, ignoring latency
        # places some subscriber beyond its budget.
        delays = problem.delays(solution.assignment)
        assert (delays > 0.05 + 1e-6).any()

    def test_no_latency_bandwidth_not_worse(self, rng):
        """Gr-no-latency optimizes bandwidth unconstrained; its bandwidth
        should not exceed Gr's by much (the paper: 'too good to be true')."""
        problem = clustered_problem(rng, max_delay=0.3)
        with_latency = evaluate_solution("Gr", online_greedy(problem))
        without = evaluate_solution(
            "Gr-no-latency", online_greedy(problem, respect_latency=False))
        assert without.bandwidth <= with_latency.bandwidth * 1.5

    def test_custom_order_changes_result(self, rng):
        problem = clustered_problem(rng)
        forward = online_greedy(problem)
        backward = online_greedy(
            problem, order=np.arange(problem.num_subscribers)[::-1])
        assert forward.info["algorithm"] == backward.info["algorithm"] == "Gr"
        # Orders usually differ in total bandwidth; at minimum both valid.
        assert verify_solution(problem, backward, {CHECK_ASSIGNMENT}).ok

    def test_load_caps_respected_when_feasible(self, rng):
        problem = clustered_problem(rng)
        solution = online_greedy(problem)
        if solution.info["load_cap_violations"] == 0:
            assert problem.load_balance_factor(solution.assignment) \
                <= problem.params.beta_max + 1e-9

    def test_single_broker(self, rng):
        points = rng.normal(size=(10, 2))
        tree = build_one_level_tree(np.zeros(2), rng.normal(size=(1, 2)))
        subs = RectSet(np.zeros((10, 2)), np.ones((10, 2)))
        params = SAParameters(max_delay=5.0, beta=1.0, beta_max=1.0)
        problem = SAProblem(tree, points, subs, params)
        solution = online_greedy(problem)
        assert (solution.assignment == tree.leaves[0]).all()


class TestOfflineGreedy:
    def test_produces_valid_solution(self, rng):
        problem = clustered_problem(rng)
        solution = offline_greedy(problem)
        report = verify_solution(problem, solution,
                                 {CHECK_ASSIGNMENT, CHECK_NESTING,
                                  CHECK_COMPLEXITY})
        assert report.ok, report.summary()
        assert solution.info["algorithm"] == "Gr*"

    def test_all_subscribers_assigned_exactly_once(self, rng):
        problem = clustered_problem(rng)
        solution = offline_greedy(problem)
        assert (solution.assignment >= 0).all()
        assert len(solution.assignment) == problem.num_subscribers

    def test_load_balance_better_or_equal_to_gr(self, rng):
        """The paper's headline: Gr* produces more balanced loads than Gr."""
        lbf_gr, lbf_star = [], []
        for seed in range(5):
            local = np.random.default_rng(seed)
            problem = clustered_problem(local, m=120, brokers=4,
                                        max_delay=1.0)
            lbf_gr.append(problem.load_balance_factor(
                online_greedy(problem).assignment))
            lbf_star.append(problem.load_balance_factor(
                offline_greedy(problem).assignment))
        assert np.mean(lbf_star) <= np.mean(lbf_gr) + 1e-9

    def test_deterministic(self, rng):
        problem = clustered_problem(rng)
        a = offline_greedy(problem).assignment
        b = offline_greedy(problem).assignment
        assert np.array_equal(a, b)

    def test_constrained_first_ordering(self):
        """Subscribers with one candidate go before flexible ones."""
        rng = np.random.default_rng(0)
        # Brokers far apart; subscribers near broker 0 have 1 candidate.
        tree = build_one_level_tree(
            np.zeros(2), np.array([[10.0, 0.0], [-10.0, 0.0]]))
        points = np.vstack([np.tile([10.0, 0.1], (6, 1)),
                            np.tile([0.0, 15.0], (4, 1))])
        centers = rng.uniform(40, 60, size=(10, 2))
        subs = RectSet(centers, centers + 1.0)
        params = SAParameters(max_delay=0.2, beta=1.6, beta_max=1.6)
        problem = SAProblem(tree, points, subs, params)
        solution = offline_greedy(problem)
        # The 6 constrained subscribers keep their only feasible broker.
        assert (solution.assignment[:6] == tree.leaves[0]).all()

    def test_greedy_filters_within_alpha(self, rng):
        problem = clustered_problem(rng)
        for algo in (online_greedy, offline_greedy):
            solution = algo(problem)
            alpha = problem.params.alpha
            assert all(f.complexity <= alpha
                       for f in solution.filters.values())


class TestGreedyMultilevel:
    def test_nesting_on_multilevel_tree(self, small_multilevel_problem):
        for algo in (online_greedy, offline_greedy):
            solution = algo(small_multilevel_problem)
            report = verify_solution(small_multilevel_problem, solution,
                                     {CHECK_ASSIGNMENT, CHECK_NESTING})
            assert report.ok, f"{algo.__name__}: {report.summary()}"

    def test_bandwidth_accounts_internal_brokers(self, small_multilevel_problem):
        solution = offline_greedy(small_multilevel_problem)
        tree = small_multilevel_problem.tree
        internal = [n for n in range(1, tree.num_nodes) if not tree.is_leaf(n)]
        if internal:
            assert any(not solution.filters[n].is_empty() for n in internal)


# -- pinned outputs -------------------------------------------------------------
#
# sha256 over the assignment and every filter's rectangles, recorded
# before the greedy walk learned to commit the placement it costed.  A
# float that moves in the least-enlargement step changes a filter or a
# later choice and fails here.


def greedy_digest(assignment, filters):
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(assignment, dtype=np.int64).tobytes())
    for node in sorted(filters):
        h.update(np.int64(node).tobytes())
        h.update(np.ascontiguousarray(filters[node].rects.lo).tobytes())
        h.update(np.ascontiguousarray(filters[node].rects.hi).tobytes())
    return h.hexdigest()


def _population(num_subscribers, num_brokers):
    return generate_google_groups(7, GoogleGroupsConfig(
        num_subscribers=num_subscribers, num_brokers=num_brokers,
        interest_skew="H", broad_interests="L"))


@pytest.fixture(scope="module")
def event_problem():
    """The event-plane benchmark's population: 1500 subscribers, 16 brokers."""
    return one_level_problem(_population(1500, 16))


@pytest.fixture(scope="module")
def deep_problem():
    return multilevel_problem(_population(2000, 64), max_out_degree=8, seed=7)


GOLDEN_ONE_LEVEL = {
    "Gr*": "55c6b82b96e5fc1c33771745a5e3b5451657e6dc9e469aea40f9de87a1295db8",
    "Gr": "068df6ec737074025e9b986841d5ebf7cc881123fcd3a00ee3c47e5717a48664",
    "Gr-no-latency":
        "9737b63feaebf5e41dbc95cf8b43f255813abafe22463434a754861e2ef4f84e",
}
GOLDEN_MULTILEVEL = {
    "Gr*": "f3791013d402cf7b6aed8f7ca43bfd3e2d11940cab2516c5f16c868d92d77bb8",
    "Gr": "2e0c13f08d004fb26effaa4c8d03dcac608f57c678596921e1921d0ee7b69045",
}
GOLDEN_DYNAMIC = \
    "007f771fe92d34432607c637500bb11c8270ebe6f0be67a76d2cba40807e81d4"
GOLDEN_FAILOVER = {
    "one-level":
        "16bc2056a56a7863e065f7919a06c25de2b009b7f981fe0faa864f61200ad585",
    "multilevel":
        "69903d37fe60da6aaaf76f27079cea0aa63f0441fbdde5724e3a9719861f4bc8",
}


def _run_greedy(problem, name):
    if name == "Gr*":
        return offline_greedy(problem)
    return online_greedy(problem, respect_latency=name == "Gr")


class TestGoldenDigests:
    @pytest.mark.parametrize("name", sorted(GOLDEN_ONE_LEVEL))
    def test_one_level(self, event_problem, name):
        solution = _run_greedy(event_problem, name)
        assert greedy_digest(solution.assignment, solution.filters) == \
            GOLDEN_ONE_LEVEL[name]

    @pytest.mark.parametrize("name", sorted(GOLDEN_MULTILEVEL))
    def test_multilevel(self, deep_problem, name):
        solution = _run_greedy(deep_problem, name)
        assert greedy_digest(solution.assignment, solution.filters) == \
            GOLDEN_MULTILEVEL[name]

    def test_dynamic_arrivals_and_departures(self, event_problem):
        """Online arrivals on grown filters, departures, and arrivals on
        the filters a re-optimization loaded."""
        manager = DynamicPubSub(event_problem)
        order = np.random.default_rng(3).permutation(
            event_problem.num_subscribers)
        for j in order[:900]:
            manager.arrive(int(j))
        for j in order[100:400]:
            manager.depart(int(j))
        for j in order[900:1200]:
            manager.arrive(int(j))
        manager.reoptimize("Gr*")
        for j in order[1200:]:
            manager.arrive(int(j))
        assert greedy_digest(manager.assignment,
                             manager.current_filters()) == GOLDEN_DYNAMIC

    @pytest.mark.parametrize("tree", sorted(GOLDEN_FAILOVER))
    def test_failover_repair(self, event_problem, deep_problem, tree):
        """Re-place the subscribers of crashed brokers on the survivors.

        One level loses its two most loaded leaves; the multilevel tree
        loses the publisher's busiest child and every leaf beneath it.
        """
        problem = event_problem if tree == "one-level" else deep_problem
        solution = offline_greedy(problem)
        if tree == "one-level":
            loads = problem.loads(solution.assignment)
            victims = problem.tree.leaves[np.argsort(-loads, kind="stable")[:2]]
        else:
            children = problem.tree.children(PUBLISHER)
            loads = problem.loads(solution.assignment)
            under = [int(loads[problem.tree.subtree_leaf_rows(c)].sum())
                     for c in children]
            victims = [children[int(np.argmax(under))]]
        engine = DisseminationEngine(
            problem.tree, solution.filters, solution.assignment,
            problem.subscriptions, subscriber_points=problem.subscriber_points)
        apply_fault_plan(engine, FaultPlan(outages=tuple(
            BrokerOutage(int(v), 1.0) for v in victims)), problem)
        result = engine.run(
            UniformEvents(Rect(problem.subscriptions.lo.min(axis=0),
                               problem.subscriptions.hi.max(axis=0))),
            np.random.default_rng(7), 50)
        assert result.telemetry.counter("failover_migrations").value > 0
        assert greedy_digest(engine.assignment, engine.filters) == \
            GOLDEN_FAILOVER[tree]
