"""Shard planning invariants: partitioning, covers, packing, rebalance,
and the sharded matcher `serve --shards` plugs in.

The plan layer is pure, deterministic bookkeeping — but every
dissemination guarantee downstream leans on its invariants: the
subgroups must partition the population exactly, every member
subscription must lie inside its shard's cover filter, and re-planning
must respect the capacity bound while moving as little as possible.
"""

import numpy as np
import pytest

from repro import (
    BruteForceMatcher,
    GoogleGroupsConfig,
    generate_google_groups,
    one_level_problem,
)
from repro.geometry import RectSet
from repro.shard import (
    MAX_COVER_RECTS,
    ShardedMatcher,
    ShardPlan,
    plan_shards,
    rebalance_groups,
    replan_shards,
)


def boxes(rng, n):
    lo = rng.uniform(0.0, 90.0, size=(n, 2))
    hi = np.minimum(lo + rng.uniform(0.5, 10.0, size=(n, 2)), 100.0)
    return RectSet(lo, hi)


def assert_partition(plan: ShardPlan) -> None:
    owner = plan.shard_of()
    assert (owner >= 0).all(), "every subscriber must be owned"
    assert int(plan.loads().sum()) == plan.num_subscribers
    seen = np.concatenate(plan.members) if plan.num_shards else np.empty(0)
    assert len(seen) == len(np.unique(seen)) == plan.num_subscribers


def assert_covers_enclose(plan: ShardPlan, subs: RectSet) -> None:
    for members, cover in zip(plan.members, plan.covers):
        if not len(members):
            continue
        sub = subs.take(members)
        # Every member rectangle must lie inside some cover rectangle's
        # bounding region: probe with the member's own corners/centre.
        for pts in (sub.lo, sub.hi, (sub.lo + sub.hi) / 2):
            assert cover.contains_points(pts).all()


class TestPlanShards:
    @pytest.mark.parametrize("shards", [1, 2, 3, 8])
    def test_partition_and_covers(self, rng, shards):
        subs = boxes(rng, 200)
        assignment = rng.integers(0, 6, size=200)
        plan = plan_shards(subs, shards, assignment=assignment)
        assert plan.num_shards <= shards
        assert_partition(plan)
        assert_covers_enclose(plan, subs)

    def test_deterministic(self, rng):
        subs = boxes(rng, 150)
        assignment = rng.integers(0, 5, size=150)
        a = plan_shards(subs, 4, assignment=assignment)
        b = plan_shards(subs, 4, assignment=assignment)
        assert all(np.array_equal(x, y)
                   for x, y in zip(a.members, b.members))
        assert np.array_equal(a.group_shard, b.group_shard)

    def test_feasibility_signature_grouping(self, rng):
        subs = boxes(rng, 60)
        feasible = rng.random((4, 60)) < 0.5
        feasible[0] = True  # every subscriber has at least one leaf
        plan = plan_shards(subs, 3, feasible=feasible)
        assert_partition(plan)
        # Subscribers sharing a feasibility column stay in one subgroup
        # unless the size cap split them.
        packed = np.packbits(feasible, axis=0).T
        owner = plan.shard_of()
        for group in plan.groups:
            assert len(np.unique(packed[group], axis=0)) == 1
            assert len(np.unique(owner[group])) == 1

    def test_effective_shards_capped_by_groups(self, rng):
        subs = boxes(rng, 10)
        # One signature, group cap >= population: a single subgroup.
        plan = plan_shards(subs, 8, max_group_size=10)
        assert plan.num_shards == 1

    def test_lpt_balances_loads(self, rng):
        subs = boxes(rng, 400)
        assignment = rng.integers(0, 16, size=400)
        plan = plan_shards(subs, 4, assignment=assignment)
        loads = plan.loads()
        # LPT keeps the spread within the largest subgroup's size.
        largest = max(len(g) for g in plan.groups)
        assert int(loads.max() - loads.min()) <= largest

    def test_cover_rect_cap(self, rng):
        subs = boxes(rng, 300)
        assignment = np.arange(300)  # every subscriber its own signature
        plan = plan_shards(subs, 2, assignment=assignment,
                           max_group_size=1, max_cover_rects=8)
        for cover in plan.covers:
            assert len(cover.rects) <= 8
        assert_covers_enclose(plan, subs)

    def test_empty_population(self):
        subs = RectSet(np.empty((0, 2)), np.empty((0, 2)))
        plan = plan_shards(subs, 4)
        assert plan.num_subscribers == 0
        assert plan.num_shards == 1
        assert_partition(plan)

    def test_bad_arguments(self, rng):
        subs = boxes(rng, 20)
        with pytest.raises(ValueError):
            plan_shards(subs, 0)
        with pytest.raises(ValueError):
            plan_shards(subs, 2, max_group_size=0)
        with pytest.raises(ValueError):
            plan_shards(subs, 2, assignment=np.zeros(3, dtype=int))


class TestRebalance:
    def test_all_fit_at_home_nothing_moves(self):
        weights = np.array([5, 5, 5, 5])
        home = np.array([0, 0, 1, 1])
        assert np.array_equal(
            rebalance_groups(weights, home, 2), home)

    def test_overflow_migrates_minimally(self):
        # Shard 0 is overloaded: capacity ceil(40/2)=20, home load 30.
        weights = np.array([10, 10, 10, 10])
        home = np.array([0, 0, 0, 1])
        assigned = rebalance_groups(weights, home, 2)
        moved = int(np.sum(assigned != home))
        assert moved == 1
        loads = np.bincount(assigned, weights=weights, minlength=2)
        assert loads.max() <= 20

    def test_single_shard_trivial(self):
        assigned = rebalance_groups(np.array([3, 7]), np.array([0, 0]), 1)
        assert np.array_equal(assigned, [0, 0])

    def test_deterministic(self):
        weights = np.array([8, 6, 6, 4, 4, 2])
        home = np.array([0, 0, 0, 1, 1, 2])
        a = rebalance_groups(weights, home, 3)
        b = rebalance_groups(weights, home, 3)
        assert np.array_equal(a, b)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            rebalance_groups(np.array([1]), np.array([0, 1]), 2)
        with pytest.raises(ValueError):
            rebalance_groups(np.array([1]), np.array([5]), 2)
        with pytest.raises(ValueError):
            rebalance_groups(np.array([1]), np.array([0]), 0)


class TestReplanShards:
    def test_unchanged_population_moves_nothing(self, rng):
        subs = boxes(rng, 200)
        assignment = rng.integers(0, 6, size=200)
        plan = plan_shards(subs, 3, assignment=assignment)
        new_plan, moved = replan_shards(subs, plan, assignment=assignment)
        assert moved == 0
        assert np.array_equal(new_plan.shard_of(), plan.shard_of())

    def test_churned_assignment_stays_partition(self, rng):
        subs = boxes(rng, 200)
        assignment = rng.integers(0, 6, size=200)
        plan = plan_shards(subs, 3, assignment=assignment)
        churned = assignment.copy()
        churned[rng.choice(200, size=50, replace=False)] = \
            rng.integers(0, 6, size=50)
        new_plan, moved = replan_shards(subs, plan, assignment=churned)
        assert_partition(new_plan)
        assert_covers_enclose(new_plan, subs)
        owner = plan.shard_of()
        new_owner = new_plan.shard_of()
        # Migration stays a small fraction: the untouched 150 subscribers
        # keep their signatures, so their subgroups anchor at home.
        assert moved == int(np.sum(owner != new_owner))
        assert moved <= 100

    def test_capacity_respected_up_to_one_group(self, rng):
        subs = boxes(rng, 240)
        assignment = rng.integers(0, 8, size=240)
        plan = plan_shards(subs, 4, assignment=assignment)
        new_plan, _moved = replan_shards(subs, plan, assignment=assignment)
        capacity = -(-240 // new_plan.num_shards)
        largest = max(len(g) for g in new_plan.groups)
        assert int(new_plan.loads().max()) <= capacity + largest


class TestShardedMatcher:
    def test_matches_brute_force(self):
        config = GoogleGroupsConfig(num_subscribers=150, num_brokers=6,
                                    interest_skew="H", broad_interests="L")
        problem = one_level_problem(generate_google_groups(seed=5,
                                                           config=config))
        subs = problem.subscriptions
        plan = plan_shards(subs, 4, feasible=problem.feasible_leaf)
        sharded = ShardedMatcher(subs, plan)
        brute = BruteForceMatcher(subs)
        events = np.random.default_rng(11).uniform(-5, 105, size=(300, 2))
        assert np.array_equal(sharded.match_points(events),
                              brute.match_points(events))
        for point in events[:50]:
            assert np.array_equal(sharded.match_point(point),
                                  brute.match_point(point))
