"""Tests for the Closest / Closest-no-balance / Balance baselines."""

import numpy as np
import pytest

from repro import (
    SAParameters,
    SAProblem,
    balance_assignment,
    build_one_level_tree,
    closest_broker,
)
from repro.geometry import RectSet
from repro.network.space import pairwise_distances
from repro.verify import CHECK_ASSIGNMENT, verify_solution


def spread_problem(rng, m=80, brokers=4, beta=1.2, beta_max=1.5,
                   max_delay=2.0):
    points = rng.uniform(-5, 5, size=(m, 3))
    broker_points = rng.uniform(-5, 5, size=(brokers, 3))
    tree = build_one_level_tree(np.zeros(3), broker_points)
    centers = rng.uniform(10, 90, size=(m, 2))
    subs = RectSet(centers, centers + rng.uniform(1, 5, size=(m, 2)))
    params = SAParameters(max_delay=max_delay, beta=beta, beta_max=beta_max)
    return SAProblem(tree, points, subs, params)


class TestClosestNoBalance:
    def test_picks_nearest_broker(self, rng):
        problem = spread_problem(rng)
        solution = closest_broker(problem, enforce_load_cap=False)
        distances = pairwise_distances(problem.tree.leaf_positions(),
                                       problem.subscriber_points)
        nearest_rows = distances.argmin(axis=0)
        expected = problem.tree.leaves[nearest_rows]
        assert np.array_equal(solution.assignment, expected)

    def test_name(self, rng):
        problem = spread_problem(rng)
        solution = closest_broker(problem, enforce_load_cap=False)
        assert solution.info["algorithm"] == "Closest-no-balance"

    def test_can_overload(self):
        rng = np.random.default_rng(0)
        # All subscribers huddle next to broker 0.
        tree = build_one_level_tree(
            np.zeros(2), np.array([[1.0, 0.0], [50.0, 0.0]]))
        points = np.tile([1.0, 0.1], (20, 1))
        subs = RectSet(np.zeros((20, 2)), np.ones((20, 2)))
        params = SAParameters(max_delay=5.0, beta=1.0, beta_max=1.2)
        problem = SAProblem(tree, points, subs, params)
        solution = closest_broker(problem, enforce_load_cap=False)
        assert problem.load_balance_factor(solution.assignment) > 1.5


class TestClosest:
    def test_respects_beta_max_cap(self):
        rng = np.random.default_rng(0)
        tree = build_one_level_tree(
            np.zeros(2), np.array([[1.0, 0.0], [50.0, 0.0]]))
        points = np.tile([1.0, 0.1], (20, 1))
        subs = RectSet(np.zeros((20, 2)), np.ones((20, 2)))
        params = SAParameters(max_delay=60.0, beta=1.0, beta_max=1.2)
        problem = SAProblem(tree, points, subs, params)
        solution = closest_broker(problem, enforce_load_cap=True)
        loads = problem.loads(solution.assignment)
        cap = int(np.floor(1.2 * 0.5 * 20))
        assert loads.max() <= cap

    def test_overflow_goes_to_next_nearest(self):
        rng = np.random.default_rng(0)
        tree = build_one_level_tree(
            np.zeros(2),
            np.array([[1.0, 0.0], [2.0, 0.0], [50.0, 0.0]]))
        points = np.tile([1.0, 0.1], (9, 1))
        subs = RectSet(np.zeros((9, 2)), np.ones((9, 2)))
        params = SAParameters(max_delay=60.0, beta=1.0, beta_max=1.0)
        problem = SAProblem(tree, points, subs, params)
        solution = closest_broker(problem, enforce_load_cap=True)
        loads = problem.loads(solution.assignment)
        # Equal caps of 3: overflow cascades to broker 2 then broker 3.
        assert loads.tolist() == [3, 3, 3]

    def test_filters_cover_assignments(self, rng):
        problem = spread_problem(rng)
        solution = closest_broker(problem, enforce_load_cap=True)
        for j in range(problem.num_subscribers):
            leaf = int(solution.assignment[j])
            assert solution.filters[leaf].contains_subscription(
                problem.subscriptions.rect(j))


class TestBalance:
    def test_achieves_best_lbf(self, rng):
        problem = spread_problem(rng, beta=1.2, beta_max=1.5)
        solution = balance_assignment(problem)
        assert verify_solution(problem, solution, {CHECK_ASSIGNMENT}).ok
        # Balance may beat even the desired beta.
        assert solution.info["achieved_lbf"] <= 64.0

    def test_lbf_not_worse_than_closest(self, rng):
        problem = spread_problem(rng)
        balance_lbf = problem.load_balance_factor(
            balance_assignment(problem).assignment)
        closest_lbf = problem.load_balance_factor(
            closest_broker(problem, enforce_load_cap=False).assignment)
        assert balance_lbf <= closest_lbf + 1e-9

    def test_latency_respected(self, rng):
        problem = spread_problem(rng, max_delay=0.8)
        solution = balance_assignment(problem)
        delays = problem.delays(solution.assignment)
        finite = delays[np.isfinite(delays)]
        assert (finite <= 0.8 + 1e-6).all()

    def test_ignores_event_space(self, rng):
        """Balance never looks at subscriptions: permuting them changes
        nothing about the assignment."""
        problem = spread_problem(rng)
        shuffled = SAProblem(
            problem.tree, problem.subscriber_points,
            problem.subscriptions.take(
                np.random.default_rng(1).permutation(
                    problem.num_subscribers)),
            problem.params)
        a = balance_assignment(problem).assignment
        b = balance_assignment(shuffled).assignment
        assert np.array_equal(a, b)
