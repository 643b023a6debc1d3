"""Tests for bandwidth, delay, and load metrics plus reports."""

import numpy as np
import pytest

from repro import (
    GoogleGroupsConfig,
    SAParameters,
    SAProblem,
    UniformEvents,
    build_one_level_tree,
    evaluate_solution,
    filters_from_assignment,
    generate_google_groups,
    offline_greedy,
    one_level_problem,
    total_bandwidth,
)
from repro.core.problem import SASolution
from repro.geometry import Rect, RectSet
from repro.metrics import (
    broker_bandwidths,
    delay_scatter,
    load_boxplot,
    load_cdf,
    load_stdev,
    max_delay,
    overloaded_fraction,
    rms_delay,
)
from repro.pubsub import Filter


def make_problem():
    tree = build_one_level_tree(np.zeros(2),
                                np.array([[1.0, 0.0], [2.0, 0.0]]))
    points = np.array([[1.0, 0.0], [1.5, 0.0], [2.0, 0.0], [2.5, 0.0]])
    subs = RectSet(np.zeros((4, 2)), np.ones((4, 2)) * np.arange(1, 5)[:, None])
    params = SAParameters(max_delay=1.0, beta=1.5, beta_max=2.0)
    return SAProblem(tree, points, subs, params)


class TestBandwidth:
    def test_total_is_sum_of_union_volumes(self):
        filters = {
            1: Filter.from_rects([Rect([0, 0], [2, 2]), Rect([1, 0], [3, 2])]),
            2: Filter.from_rects([Rect([0, 0], [1, 1])]),
        }
        assert total_bandwidth(filters) == pytest.approx(6.0 + 1.0)

    def test_empty_filters_zero(self):
        filters = {1: Filter.empty(2)}
        assert total_bandwidth(filters) == 0.0

    def test_per_broker(self):
        filters = {1: Filter.from_rects([Rect([0, 0], [2, 3])]),
                   2: Filter.empty(2)}
        per = broker_bandwidths(filters)
        assert per[1] == pytest.approx(6.0)
        assert per[2] == 0.0

    def test_with_distribution(self):
        dist = UniformEvents(Rect([0, 0], [10, 10]))
        filters = {1: Filter.from_rects([Rect([0, 0], [5, 10])])}
        assert total_bandwidth(filters, dist) == pytest.approx(50.0)


class TestDelayMetrics:
    def test_rms_zero_for_best_assignment(self):
        problem = make_problem()
        best_rows = problem.leaf_latency.argmin(axis=0)
        assignment = problem.tree.leaves[best_rows]
        assert rms_delay(problem, assignment) == pytest.approx(0.0)

    def test_rms_and_max_for_detours(self):
        problem = make_problem()
        worst_rows = problem.leaf_latency.argmax(axis=0)
        assignment = problem.tree.leaves[worst_rows]
        assert rms_delay(problem, assignment) > 0
        assert max_delay(problem, assignment) >= rms_delay(problem, assignment)

    def test_unassigned_all_inf(self):
        problem = make_problem()
        assignment = np.full(4, -1)
        assert rms_delay(problem, assignment) == np.inf

    def test_scatter_shape(self):
        problem = make_problem()
        assignment = problem.tree.leaves[
            problem.leaf_latency.argmin(axis=0)]
        scatter = delay_scatter(problem, assignment)
        assert scatter.shape == (4, 2)
        assert np.allclose(scatter[:, 0], problem.shortest_latency)


class TestLoadMetrics:
    def test_stdev(self):
        problem = make_problem()
        leaves = problem.tree.leaves
        assignment = np.array([leaves[0]] * 4)
        assert load_stdev(problem, assignment) == pytest.approx(2.0)

    def test_boxplot_stats(self):
        problem = make_problem()
        leaves = problem.tree.leaves
        assignment = np.array([leaves[0], leaves[0], leaves[0], leaves[1]])
        stats = load_boxplot(problem, assignment)
        assert stats.minimum == 1
        assert stats.maximum == 3
        assert stats.desired_cap == pytest.approx(1.5 * 0.5 * 4)
        assert stats.maximum_cap == pytest.approx(2.0 * 0.5 * 4)

    def test_cdf_monotone(self):
        problem = make_problem()
        leaves = problem.tree.leaves
        assignment = np.array([leaves[0], leaves[1], leaves[1], leaves[1]])
        cdf = load_cdf(problem, assignment)
        assert (np.diff(cdf[:, 0]) >= 0).all()
        assert cdf[-1, 1] == pytest.approx(1.0)

    def test_overloaded_fraction(self):
        problem = make_problem()  # caps at beta_max: 2 * 0.5 * 4 = 4
        leaves = problem.tree.leaves
        balanced = np.array([leaves[0], leaves[0], leaves[1], leaves[1]])
        assert overloaded_fraction(problem, balanced) == 0.0
        # Pile 5 subscribers onto one broker via a bigger instance.
        skewed = np.array([leaves[0]] * 4)
        assert overloaded_fraction(problem, skewed) == 0.0  # 4 <= 4
        problem2 = make_problem()
        problem2.params = SAParameters(max_delay=1.0, beta=1.0,
                                       beta_max=1.0)
        assert overloaded_fraction(problem2, skewed) == pytest.approx(0.5)


class TestSolutionReport:
    def test_evaluate_end_to_end(self):
        problem = make_problem()
        rows = problem.leaf_latency.argmin(axis=0)
        assignment = problem.tree.leaves[rows]
        filters = filters_from_assignment(problem, assignment,
                                          np.random.default_rng(0))
        solution = SASolution(problem, assignment, filters,
                              fractional_bandwidth=1.0)
        report = evaluate_solution("test", solution, runtime_seconds=0.5)
        assert report.algorithm == "test"
        assert report.bandwidth > 0
        assert report.fractional_bandwidth == 1.0
        assert report.runtime_seconds == 0.5
        row = report.as_row()
        assert row["algorithm"] == "test"
        assert "bandwidth" in row


class TestPerSubscriberBudgets:
    """Feasibility is judged against ``SAProblem.latency_budgets``, the
    budgets the algorithms place by, not the global ``max_delay``."""

    @staticmethod
    def with_budgets(problem, budgets):
        return SAProblem(problem.tree, problem.subscriber_points,
                         problem.subscriptions, problem.params,
                         latency_budgets=budgets)

    @pytest.fixture(scope="class")
    def base(self):
        workload = generate_google_groups(
            seed=7, config=GoogleGroupsConfig(num_subscribers=600,
                                              num_brokers=8))
        return one_level_problem(workload)

    def test_loose_budgets_are_feasible(self, base):
        loose = self.with_budgets(
            base, (1.0 + 3.0 * base.params.max_delay) * base.shortest_latency)
        solution = offline_greedy(loose)
        # The solution does use the slack beyond (1 + D) * Delta_j.
        assert max_delay(loose, solution.assignment) > loose.params.max_delay
        report = evaluate_solution("Gr*", solution)
        assert report.latency_ok
        assert report.feasible

    def test_budget_below_assigned_path_is_a_violation(self, base):
        solution = offline_greedy(base)
        assert evaluate_solution("Gr*", solution).feasible
        # A subscriber on its best path: within the global (1 + D) budget.
        j = int(np.flatnonzero(base.delays(solution.assignment) == 0)[0])
        budgets = base.latency_budgets.copy()
        budgets[j] = 0.5 * base.shortest_latency[j]
        tight = self.with_budgets(base, budgets)
        report = evaluate_solution(
            "Gr*", SASolution(tight, solution.assignment, solution.filters))
        assert not report.latency_ok
        assert not report.feasible
        assert report.all_assigned and report.nesting_ok
