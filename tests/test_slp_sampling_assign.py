"""Tests for FilterAssign (coreset sampling) and the assignment step."""

import numpy as np
import pytest

from repro import SAParameters, SAProblem, build_one_level_tree
from repro.core.slp import FilterAssignConfig, filter_assign
from repro.core.slp.assign_flow import (
    assign_subscriptions,
    assign_subscriptions_maxflow,
    assign_subscriptions_weighted,
    routing_floor,
)
from repro.core.slp.sampling import assignment_outcome, prune_redundant_rects
from repro.core.slp.view import SLPView, view_from_problem
from repro.geometry import RectSet


def make_view(rng, m=120, brokers=5, clusters=4):
    anchors = rng.uniform(0, 100, size=(clusters, 2))
    which = rng.integers(0, clusters, size=m)
    centers = anchors[which] + rng.uniform(-2, 2, size=(m, 2))
    half = rng.uniform(0.2, 1.0, size=(m, 2))
    subs = RectSet(centers - half, centers + half)
    return SLPView(
        subscriptions=subs,
        network_points=rng.normal(size=(m, 5)),
        feasible=np.ones((brokers, m), dtype=bool),
        kappas_effective=np.full(brokers, 1.0 / brokers),
        alpha=3,
        beta=1.5,
        beta_max=2.0,
    )


class TestSLPView:
    def test_coverage_and_uncovered(self, rng):
        view = make_view(rng, m=20)
        whole = [view.subscriptions.meb()]
        filters = [RectSet(whole[0].lo[None, :], whole[0].hi[None, :])
                   for _ in range(view.num_targets)]
        assert len(view.uncovered(filters)) == 0
        empty = [RectSet.empty(2) for _ in range(view.num_targets)]
        assert len(view.uncovered(empty)) == 20

    def test_coverage_respects_latency(self, rng):
        view = make_view(rng, m=10, brokers=2)
        view.feasible[:, 0] = False  # subscriber 0 reachable by nobody
        meb = view.subscriptions.meb()
        filters = [RectSet(meb.lo[None, :], meb.hi[None, :])
                   for _ in range(2)]
        assert 0 in view.uncovered(filters)

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError):
            SLPView(subscriptions=RectSet.empty(2),
                    network_points=np.zeros((1, 5)),
                    feasible=np.ones((2, 3), dtype=bool),
                    kappas_effective=np.ones(2),
                    alpha=3, beta=1.5, beta_max=2.0)

    def test_view_from_problem(self, small_problem):
        view = view_from_problem(small_problem)
        assert view.num_subscribers == small_problem.num_subscribers
        assert view.num_targets == small_problem.num_leaf_brokers
        assert np.array_equal(view.feasible, small_problem.feasible_leaf)


class TestFilterAssign:
    def test_covers_everyone(self, rng):
        view = make_view(rng)
        result = filter_assign(view, rng)
        assert len(view.uncovered(result.filters)) == 0

    def test_not_fallback_on_easy_instance(self, rng):
        view = make_view(rng)
        result = filter_assign(view, rng)
        assert not result.used_fallback
        assert result.fractional_objective is not None
        assert result.fractional_objective > 0

    def test_fallback_on_latency_infeasible(self, rng):
        view = make_view(rng, m=15)
        view.feasible[:, 3] = False
        result = filter_assign(view, rng)
        assert result.used_fallback
        assert result.info.get("infeasible_latency")

    def test_filters_cheaper_than_meb_everywhere(self, rng):
        """On clustered input, the found filters beat the trivial answer."""
        view = make_view(rng)
        result = filter_assign(view, rng)
        total = sum(float(f.volumes().sum()) for f in result.filters)
        trivial = view.num_targets * view.subscriptions.meb().volume()
        assert total < trivial

    def test_respects_iteration_cap(self, rng):
        view = make_view(rng, m=60)
        config = FilterAssignConfig(max_total_iterations=2)
        result = filter_assign(view, rng, config)
        assert result.info["iterations"] <= 2 or result.used_fallback


class TestPruning:
    def test_keeps_coverage(self, rng):
        view = make_view(rng)
        result = filter_assign(view, rng)
        pruned = prune_redundant_rects(view, result.filters)
        assert len(view.uncovered(pruned)) == 0

    def test_never_grows(self, rng):
        view = make_view(rng)
        result = filter_assign(view, rng)
        pruned = prune_redundant_rects(view, result.filters)
        before = sum(len(f) for f in result.filters)
        after = sum(len(f) for f in pruned)
        assert after <= before

    def test_drops_duplicate_rects_in_broker(self, rng):
        view = make_view(rng, m=10, brokers=1, clusters=1)
        meb = view.subscriptions.meb()
        doubled = RectSet(np.vstack([meb.lo, meb.lo]),
                          np.vstack([meb.hi, meb.hi]))
        pruned = prune_redundant_rects(view, [doubled])
        assert len(pruned[0]) == 1


class TestAssignment:
    def run_both(self, view, filters):
        locality = assign_subscriptions(view, filters)
        maxflow = assign_subscriptions_maxflow(view, filters)
        return locality, maxflow

    def test_assignment_within_coverage(self, rng):
        view = make_view(rng)
        result = filter_assign(view, rng)
        outcome = assign_subscriptions(view, result.filters)
        coverage = view.coverage(result.filters)
        for j, target in enumerate(outcome.target_of):
            assert coverage[target, j]

    def test_loads_within_achieved_caps(self, rng):
        view = make_view(rng)
        result = filter_assign(view, rng)
        outcome = assign_subscriptions(view, result.filters)
        if outcome.feasible:
            loads = np.bincount(outcome.target_of,
                                minlength=view.num_targets)
            caps = np.floor(outcome.achieved_beta * view.kappas_effective
                            * view.num_subscribers)
            assert (loads <= caps).all()

    def test_locality_matches_maxflow_feasibility(self, rng):
        """Regression for the augmentation load-accounting bug: both
        assignment strategies must agree on feasibility (max-flow value is
        unique) and respect the same capacity bound."""
        for seed in range(6):
            local_rng = np.random.default_rng(seed)
            view = make_view(local_rng, m=80, brokers=4)
            result = filter_assign(view, local_rng,
                                   FilterAssignConfig(
                                       require_load_feasible=False))
            locality, maxflow = self.run_both(view, result.filters)
            assert locality.feasible == maxflow.feasible
            if locality.feasible:
                loads = np.bincount(locality.target_of,
                                    minlength=view.num_targets)
                caps = np.floor(max(locality.achieved_beta,
                                    maxflow.achieved_beta)
                                * view.kappas_effective
                                * view.num_subscribers)
                assert (loads <= caps).all()

    def test_locality_bandwidth_sane(self, rng):
        """The locality-seeded flow groups at least comparably to an
        arbitrary max-flow (strict superiority is workload-dependent; on
        region-correlated workloads it wins clearly — see the coreset
        ablation bench — so this only guards against regressions)."""
        from repro.geometry import alpha_meb_cover
        total = {"locality": 0.0, "maxflow": 0.0}
        for seed in range(4):
            local_rng = np.random.default_rng(100 + seed)
            view = make_view(local_rng, m=100, brokers=4)
            result = filter_assign(view, local_rng)
            locality, maxflow = self.run_both(view, result.filters)
            for name, outcome in [("locality", locality),
                                  ("maxflow", maxflow)]:
                for t in range(view.num_targets):
                    members = np.flatnonzero(outcome.target_of == t)
                    if len(members):
                        cover = alpha_meb_cover(
                            view.subscriptions.take(members), view.alpha,
                            np.random.default_rng(0))
                        total[name] += float(cover.volumes().sum())
        assert total["locality"] <= total["maxflow"] * 2.0

    def test_stranded_best_effort_when_impossible(self, rng):
        view = make_view(rng, m=20, brokers=2)
        view.kappas_effective = np.array([0.05, 0.05])  # caps of 1 each
        result = filter_assign(view, rng,
                               FilterAssignConfig(max_total_iterations=2))
        outcome = assign_subscriptions(view, result.filters)
        assert not outcome.feasible
        assert (outcome.target_of >= 0).all()  # best effort still assigns


def fresh_outcome(view, filters):
    if view.weights is None:
        return assign_subscriptions(view, filters)
    return assign_subscriptions_weighted(view, filters)


def assert_same_outcome(got, fresh):
    assert np.array_equal(got.target_of, fresh.target_of)
    assert got.achieved_beta == fresh.achieved_beta
    assert got.feasible == fresh.feasible
    assert got.info == fresh.info
    assert np.array_equal(got.unrouted_subscribers,
                          fresh.unrouted_subscribers)


class TestAcceptedOutcome:
    """FilterAssign hands back the assignment its acceptance check made.

    Callers use it instead of assigning again, so it must be exactly
    what a fresh assignment over the returned filters gives.
    """

    @staticmethod
    def weighted(view, rng):
        view.weights = rng.integers(1, 4, size=view.num_subscribers) \
            .astype(float)
        return view

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_outcome_equals_a_fresh_assignment(self, weighted, seed):
        rng = np.random.default_rng(seed)
        view = make_view(rng, m=90, brokers=4)
        if weighted:
            view = self.weighted(view, rng)
        result = filter_assign(view, rng)
        assert result.outcome is not None
        assert_same_outcome(result.outcome,
                            fresh_outcome(view, result.filters))
        assert assignment_outcome(view, result) is result.outcome

    @pytest.mark.parametrize("weighted", [False, True])
    def test_best_unrouted_candidate_keeps_its_outcome(self, weighted):
        # 44 subscribers reach only target 0, whose cap is 40: the LP
        # (C3 runs over a sample) can be feasible, the assignment never
        # is, so FilterAssign returns its least-unrouted candidate.
        rng = np.random.default_rng(0)
        view = make_view(rng, m=200, brokers=3)
        if weighted:
            view = self.weighted(view, rng)
        view.beta = view.beta_max = 1.0
        view.kappas_effective = np.array([0.2, 0.3, 0.5])
        view.feasible[1:, :44] = False
        result = filter_assign(view, rng,
                               FilterAssignConfig(max_total_iterations=3))
        assert not result.used_fallback
        assert result.info["accepted_with_unrouted"] > 0
        assert not result.outcome.feasible
        assert_same_outcome(result.outcome,
                            fresh_outcome(view, result.filters))

    @pytest.mark.parametrize("weighted", [False, True])
    def test_unchecked_results_assign_afresh(self, weighted):
        rng = np.random.default_rng(7)
        view = make_view(rng, m=60, brokers=3)
        if weighted:
            view = self.weighted(view, rng)
        unchecked = filter_assign(
            view, rng, FilterAssignConfig(require_load_feasible=False))
        view.feasible[:, 0] = False   # nobody reaches subscriber 0
        fallback = filter_assign(view, rng)
        assert fallback.used_fallback
        for result in (unchecked, fallback):
            assert result.outcome is None
            assert_same_outcome(assignment_outcome(view, result),
                                fresh_outcome(view, result.filters))


class TestRoutingFloor:
    """An unweighted view no filter can make load-feasible stops early.

    Target 0 is the only latency-feasible target of 60 subscribers and
    holds 50, so every covering candidate leaves at least 10 unrouted.
    FilterAssign accepts the first candidate at that floor instead of
    spending its whole iteration budget on LP solves; most of the solves
    it does make are load-infeasible samples before the first covering
    candidate.
    """

    @staticmethod
    def load_infeasible_view(rng):
        view = make_view(rng, m=100, brokers=2)
        view.beta = view.beta_max = 1.0
        view.feasible[1, :60] = False
        return view

    def test_accepts_at_the_floor(self):
        rng = np.random.default_rng(4)
        view = self.load_infeasible_view(rng)
        assert routing_floor(view) == 10
        result = filter_assign(view, rng)
        assert not result.used_fallback
        assert result.info["accepted_with_unrouted"] == 10
        assert result.info["lp_calls"] <= 40
        assert result.outcome.info["unrouted"] == 10
        assert_same_outcome(result.outcome,
                            fresh_outcome(view, result.filters))
