"""Tests for the SA problem model, its constraint checks, and filter construction."""

import numpy as np
import pytest

from repro import (
    SAParameters,
    SAProblem,
    SASolution,
    build_one_level_tree,
    filters_from_assignment,
)
from repro.geometry import Rect, RectSet
from repro.pubsub import Filter
from repro.verify import (
    CHECK_ASSIGNMENT,
    CHECK_COMPLEXITY,
    CHECK_LATENCY,
    CHECK_LOAD,
    CHECK_NESTING,
    verify_solution,
)


def line_problem(max_delay=0.5, beta=2.0, beta_max=3.0):
    """Publisher at origin; two brokers at x=1 and x=2; subs on the line."""
    tree = build_one_level_tree(np.zeros(2),
                                np.array([[1.0, 0.0], [2.0, 0.0]]))
    points = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    subs = RectSet(np.array([[0.0, 0.0], [4.0, 4.0], [8.0, 8.0]]),
                   np.array([[1.0, 1.0], [5.0, 5.0], [9.0, 9.0]]))
    params = SAParameters(alpha=2, max_delay=max_delay, beta=beta,
                          beta_max=beta_max)
    return SAProblem(tree, points, subs, params)


class TestParameters:
    def test_defaults_match_paper(self):
        p = SAParameters()
        assert p.alpha == 3
        assert p.max_delay == 0.3
        assert (p.beta, p.beta_max) == (1.5, 1.8)

    @pytest.mark.parametrize("kwargs", [
        {"alpha": 0},
        {"max_delay": -0.1},
        {"beta": 0.0},
        {"beta": 2.0, "beta_max": 1.5},
        {"latency_mode": "bogus"},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SAParameters(**kwargs)


class TestProblemDerivations:
    def test_shortest_latency(self):
        problem = line_problem()
        # Subscriber at (1,0): best via broker 1 -> 1 + 0 = 1.
        assert problem.shortest_latency[0] == pytest.approx(1.0)
        # Subscriber at (3,0): broker1 path 1+2=3; broker2 path 2+1=3.
        assert problem.shortest_latency[2] == pytest.approx(3.0)

    def test_latency_budget_scaling(self):
        problem = line_problem(max_delay=0.5)
        assert np.allclose(problem.latency_budgets,
                           1.5 * problem.shortest_latency)

    def test_feasible_leaf_matrix(self):
        problem = line_problem(max_delay=0.1)
        # Subscriber 0 at (1,0): broker1 latency 1 (ok), broker2 2+1=3 (no).
        assert problem.feasible_leaf[0, 0]
        assert not problem.feasible_leaf[1, 0]

    def test_candidate_counts(self):
        problem = line_problem(max_delay=5.0)
        assert problem.candidate_counts().tolist() == [2, 2, 2]

    def test_delays(self):
        problem = line_problem()
        leaves = problem.tree.leaves
        assignment = np.array([leaves[1], leaves[1], leaves[1]])
        delays = problem.delays(assignment)
        # Subscriber 0 via broker2: 2 + 1 = 3 vs best 1 -> delay 2.
        assert delays[0] == pytest.approx(2.0)

    def test_non_leaf_assignment_raises(self):
        problem = line_problem()
        assignment = np.array([0, problem.tree.leaves[0], -1])
        with pytest.raises(KeyError):
            problem.loads(assignment)
        with pytest.raises(KeyError):
            problem.delays(assignment)

    def test_delays_unassigned_inf(self):
        problem = line_problem()
        delays = problem.delays(np.array([-1, -1, -1]))
        assert np.isinf(delays).all()

    def test_loads_and_lbf(self):
        problem = line_problem()
        leaves = problem.tree.leaves
        assignment = np.array([leaves[0], leaves[0], leaves[1]])
        assert problem.loads(assignment).tolist() == [2, 1]
        assert problem.load_balance_factor(assignment) == pytest.approx(
            2 / (0.5 * 3))

    def test_custom_kappas_validation(self):
        tree = build_one_level_tree(np.zeros(2), np.ones((2, 2)))
        points = np.zeros((1, 2))
        subs = RectSet(np.zeros((1, 2)), np.ones((1, 2)))
        with pytest.raises(ValueError):
            SAProblem(tree, points, subs, kappas=np.array([0.5, 0.7]))
        with pytest.raises(ValueError):
            SAProblem(tree, points, subs, kappas=np.array([1.0]))

    def test_explicit_latency_budgets(self):
        tree = build_one_level_tree(np.zeros(2), np.ones((2, 2)))
        points = np.zeros((2, 2))
        subs = RectSet(np.zeros((2, 2)), np.ones((2, 2)))
        problem = SAProblem(tree, points, subs,
                            latency_budgets=np.array([10.0, 0.1]))
        assert problem.feasible_leaf[:, 0].all()
        assert not problem.feasible_leaf[:, 1].any()

    def test_last_hop_mode(self):
        tree = build_one_level_tree(np.zeros(2),
                                    np.array([[1.0, 0.0], [5.0, 0.0]]))
        points = np.array([[1.5, 0.0]])
        subs = RectSet(np.zeros((1, 2)), np.ones((1, 2)))
        params = SAParameters(max_delay=0.5, latency_mode="last_hop",
                              beta=2.0, beta_max=2.0)
        problem = SAProblem(tree, points, subs, params)
        # Last hops: 0.5 and 3.5; budget = 1.5 * 0.5 = 0.75.
        assert problem.feasible_leaf[0, 0]
        assert not problem.feasible_leaf[1, 0]

    def test_dimension_mismatch_rejected(self):
        tree = build_one_level_tree(np.zeros(2), np.ones((2, 2)))
        subs = RectSet(np.zeros((1, 2)), np.ones((1, 2)))
        with pytest.raises(ValueError):
            SAProblem(tree, np.zeros((1, 3)), subs)
        with pytest.raises(ValueError):
            SAProblem(tree, np.zeros((2, 2)), subs)


class TestValidation:
    def test_valid_solution(self):
        problem = line_problem()
        leaves = problem.tree.leaves
        assignment = np.array([leaves[0], leaves[0], leaves[1]])
        filters = filters_from_assignment(problem, assignment,
                                          np.random.default_rng(0))
        report = verify_solution(problem,
                                 SASolution(problem, assignment, filters))
        assert report.ok, report.summary()

    def test_unassigned_detected(self):
        problem = line_problem()
        assignment = np.array([int(problem.tree.leaves[0]), -1, -1])
        filters = filters_from_assignment(problem, assignment,
                                          np.random.default_rng(0))
        report = verify_solution(problem,
                                 SASolution(problem, assignment, filters))
        assert report.count(CHECK_ASSIGNMENT) == 2
        assert not report.ok

    def test_latency_violation_detected(self):
        problem = line_problem(max_delay=0.1)
        leaves = problem.tree.leaves
        assignment = np.array([leaves[1], leaves[1], leaves[1]])
        filters = filters_from_assignment(problem, assignment,
                                          np.random.default_rng(0))
        report = verify_solution(problem,
                                 SASolution(problem, assignment, filters))
        assert report.count(CHECK_LATENCY) >= 1

    def test_nesting_violation_detected(self):
        problem = line_problem()
        leaves = problem.tree.leaves
        assignment = np.array([leaves[0], leaves[0], leaves[1]])
        filters = filters_from_assignment(problem, assignment,
                                          np.random.default_rng(0))
        # Corrupt one leaf's filter so it misses its subscriptions.
        filters[int(leaves[0])] = Filter.from_rects(
            [Rect([90.0, 90.0], [91.0, 91.0])])
        report = verify_solution(problem,
                                 SASolution(problem, assignment, filters))
        assert report.count(CHECK_NESTING) >= 1

    def test_complexity_violation_detected(self):
        problem = line_problem()  # alpha = 2
        leaves = problem.tree.leaves
        assignment = np.array([leaves[0], leaves[0], leaves[1]])
        filters = filters_from_assignment(problem, assignment,
                                          np.random.default_rng(0))
        filters[int(leaves[0])] = Filter(RectSet(np.zeros((3, 2)),
                                                 np.full((3, 2), 100.0)))
        report = verify_solution(problem,
                                 SASolution(problem, assignment, filters))
        assert report.count(CHECK_COMPLEXITY) == 1

    def test_lbf_cap_detected(self):
        problem = line_problem(beta=1.0, beta_max=1.0)
        leaves = problem.tree.leaves
        assignment = np.array([leaves[0], leaves[0], leaves[0]])
        filters = filters_from_assignment(problem, assignment,
                                          np.random.default_rng(0))
        report = verify_solution(problem,
                                 SASolution(problem, assignment, filters))
        assert report.count(CHECK_LOAD) == 1
        assert report.lbf == pytest.approx(2.0)


class TestFiltersFromAssignment:
    def test_complexity_bound(self, small_problem):
        rng = np.random.default_rng(0)
        leaves = small_problem.tree.leaves
        assignment = leaves[np.arange(small_problem.num_subscribers)
                            % len(leaves)]
        filters = filters_from_assignment(small_problem, assignment, rng)
        alpha = small_problem.params.alpha
        assert all(f.complexity <= alpha for f in filters.values())

    def test_every_subscription_covered(self, small_problem):
        rng = np.random.default_rng(0)
        leaves = small_problem.tree.leaves
        assignment = leaves[np.arange(small_problem.num_subscribers)
                            % len(leaves)]
        filters = filters_from_assignment(small_problem, assignment, rng)
        for j in range(small_problem.num_subscribers):
            assert filters[int(assignment[j])].contains_subscription(
                small_problem.subscriptions.rect(j))

    def test_multilevel_nesting(self, small_multilevel_problem):
        problem = small_multilevel_problem
        rng = np.random.default_rng(1)
        leaves = problem.tree.leaves
        assignment = leaves[np.arange(problem.num_subscribers) % len(leaves)]
        filters = filters_from_assignment(problem, assignment, rng)
        solution = SASolution(problem, assignment, filters)
        report = verify_solution(problem, solution, {CHECK_NESTING})
        assert report.ok, report.summary()

    def test_empty_leaf_gets_empty_filter(self):
        problem = line_problem()
        leaves = problem.tree.leaves
        assignment = np.array([leaves[0]] * 3)
        filters = filters_from_assignment(problem, assignment,
                                          np.random.default_rng(0))
        assert filters[int(leaves[1])].is_empty()
