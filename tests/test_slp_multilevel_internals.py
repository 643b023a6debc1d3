"""Tests for multi-level SLP internals: rebalance, widening, escalation."""

import numpy as np
import pytest

from repro import SAParameters, SAProblem, build_one_level_tree
from repro.core.slp.assign_flow import assign_subscriptions
from repro.core.slp.multilevel import _global_rebalance
from repro.core.slp.view import SLPView
from repro.geometry import RectSet
from repro.network import BrokerTree
from repro.verify import CHECK_ASSIGNMENT, verify_solution


def overloaded_problem():
    """3 brokers; every subscriber latency-feasible everywhere."""
    tree = build_one_level_tree(
        np.zeros(2), np.array([[1.0, 0.0], [1.1, 0.0], [0.9, 0.0]]))
    m = 30
    points = np.tile([1.0, 0.05], (m, 1))
    centers = np.random.default_rng(0).uniform(10, 90, size=(m, 2))
    subs = RectSet(centers, centers + 1.0)
    params = SAParameters(max_delay=2.0, beta=1.2, beta_max=1.5)
    return SAProblem(tree, points, subs, params)


class TestGlobalRebalance:
    def test_noop_when_within_caps(self):
        problem = overloaded_problem()
        # 10 subscribers per leaf: perfectly balanced.
        assignment = problem.tree.leaves[np.arange(30) % 3]
        info = {}
        out = _global_rebalance(problem, assignment, info)
        assert np.array_equal(out, assignment)
        assert "rebalanced" not in info

    def test_repairs_overload(self):
        problem = overloaded_problem()
        # Everyone piled on the first leaf: lbf = 3 >> beta_max.
        assignment = np.full(30, problem.tree.leaves[0])
        info = {}
        out = _global_rebalance(problem, assignment, info)
        assert info["rebalanced"] > 0
        lbf = problem.load_balance_factor(out)
        assert lbf <= problem.params.beta_max + 1e-9
        assert (out >= 0).all()

    def test_respects_latency_feasibility(self):
        problem = overloaded_problem()
        assignment = np.full(30, problem.tree.leaves[0])
        out = _global_rebalance(problem, assignment, {})
        for j in range(30):
            row = problem.tree.leaf_row(int(out[j]))
            assert problem.feasible_leaf[row, j]

    def test_preserves_unmoved_majority(self):
        """Only the excess moves; subscribers under the cap stay put."""
        problem = overloaded_problem()
        assignment = np.full(30, problem.tree.leaves[0])
        out = _global_rebalance(problem, assignment, {})
        cap = int(np.floor(problem.params.beta_max / 3 * 30))
        stayed = int((out == problem.tree.leaves[0]).sum())
        assert stayed >= cap - 1


class TestCoverageWidening:
    def make_view(self):
        """2 targets; target 1's filter covers nobody, caps force its use."""
        m = 8
        centers = np.full((m, 2), 50.0)
        subs = RectSet(centers, centers + 1.0)
        return SLPView(
            subscriptions=subs,
            network_points=np.zeros((m, 3)),
            feasible=np.ones((2, m), dtype=bool),
            kappas_effective=np.array([0.5, 0.5]),
            alpha=2,
            beta=1.0,
            beta_max=1.0,
        )

    def test_stranded_use_latency_feasible_targets(self):
        view = self.make_view()
        covering = RectSet(np.array([[49.0, 49.0]]), np.array([[52.0, 52.0]]))
        filters = [covering, RectSet.empty(2)]  # target 1 covers nothing
        outcome = assign_subscriptions(view, filters)
        # Caps of 4 each force half the subscribers onto target 1, which
        # covers nobody — the widening pass must route them there anyway.
        loads = np.bincount(outcome.target_of, minlength=2)
        assert loads.tolist() == [4, 4]
        assert outcome.feasible

    def test_without_widening_would_be_stuck(self):
        view = self.make_view()
        covering = RectSet(np.array([[49.0, 49.0]]), np.array([[52.0, 52.0]]))
        coverage = view.coverage([covering, RectSet.empty(2)])
        # Sanity: coverage alone only offers target 0.
        assert coverage[1].sum() == 0


class TestStagedEscalation:
    def test_topic_workload_converges(self):
        """Coverage of many distinct (topic, location) cells requires the
        certificate-size search to escalate; the staged cap makes that
        happen within the iteration budget (regression for the RSS
        fallback)."""
        from repro import RssConfig, generate_rss, one_level_problem, slp1
        config = RssConfig(num_subscribers=600, num_brokers=10)
        problem = one_level_problem(generate_rss(seed=3, config=config))
        solution = slp1(problem, seed=1)
        assert not solution.info["filter_assign"].get("fallback", False)
        assert solution.fractional_bandwidth is not None
        assert verify_solution(problem, solution, {CHECK_ASSIGNMENT}).ok
