"""Property suite for subscription aggregation (repro.core.slp.aggregate).

200+ seeded random problems (round-robin over every strategy) are
aggregated and checked against the aggregation invariants: the groups
partition the subscription set, every super-subscription is exactly the
member-union MEB, weights equal member counts, and feasibility
signatures are pure.  Planted corruptions (a wrongly split super-sub, a
dropped member) must be flagged — a checker that never fires proves
nothing.  End-to-end, aggregated SLP1 solutions still pass
``verify_solution``, and the aggregate/expand stages appear as distinct
profiler spans (the stage-attribution contract the profile CLI relies
on).
"""

import numpy as np
import pytest

from repro.core.slp import (
    AggregationConfig,
    aggregate_subscriptions,
    distribute_aggregated,
    expand_assignment,
    slp1,
    verify_aggregation,
)
from repro.core.slp.aggregate import _repair_members
from repro.core.slp.view import SLPView, view_from_problem
from repro.geometry import RectSet
from repro.perf.profiler import profiled
from repro.verify import (
    corrupt_aggregation_drop,
    corrupt_aggregation_split,
    guaranteed_checks,
    problem_cases,
    random_problem,
    verify_solution,
)

#: Aggregation is forced on even for tiny instances so the property
#: suite exercises real (non-identity) groupings.
FORCED = AggregationConfig(max_group_size=4, min_subscribers=1)

CASES = problem_cases(200, base_seed=4000)


def aggregate_case(kind, seed, config=FORCED):
    view = view_from_problem(random_problem(seed, kind).problem)
    rng = np.random.default_rng(seed)
    return view, aggregate_subscriptions(view, config, rng)


def test_case_budget_meets_the_bar():
    assert len(CASES) >= 200


def test_aggregation_invariants_hold_on_all_cases():
    failures = []
    for kind, seed in CASES:
        view, agg = aggregate_case(kind, seed)
        problems = verify_aggregation(view, agg)
        if problems:
            failures.append(f"{kind}-{seed}: {problems[:3]}")
        if agg.is_identity:
            failures.append(f"{kind}-{seed}: forced config returned identity")
    assert not failures, "\n".join(failures)


def test_groups_respect_the_size_threshold():
    for kind, seed in CASES[:40]:
        _view, agg = aggregate_case(kind, seed)
        sizes = [len(members) for members in agg.members]
        assert max(sizes) <= FORCED.max_group_size, f"{kind}-{seed}"
        assert min(sizes) >= 1


def test_expansion_is_lossless():
    # Every subscriber inherits exactly its group's target — nothing
    # dropped, nothing duplicated, independent of the target values.
    for kind, seed in CASES[:25]:
        view, agg = aggregate_case(kind, seed)
        rng = np.random.default_rng(seed + 1)
        group_targets = rng.integers(0, view.num_targets,
                                     size=agg.num_groups)
        member_targets = expand_assignment(agg, group_targets)
        assert member_targets.shape == (view.num_subscribers,)
        for row, members in enumerate(agg.members):
            assert (member_targets[members] == group_targets[row]).all()


def test_super_subs_cover_member_unions():
    # The nesting direction the LP relies on: a filter covering the
    # super-subscription covers every member.
    for kind, seed in CASES[:25]:
        view, agg = aggregate_case(kind, seed)
        lo = agg.super_subs.lo[agg.labels]
        hi = agg.super_subs.hi[agg.labels]
        assert (lo <= view.subscriptions.lo).all()
        assert (hi >= view.subscriptions.hi).all()


@pytest.mark.parametrize("corrupter", [corrupt_aggregation_split,
                                       corrupt_aggregation_drop])
def test_planted_corruptions_are_detected(corrupter):
    undetected = []
    for kind, seed in CASES[:30]:
        view, agg = aggregate_case(kind, seed)
        assert verify_aggregation(view, agg) == []
        corrupted = corrupter(view, agg)
        if not verify_aggregation(view, corrupted):
            undetected.append(f"{kind}-{seed}")
        # Corruption must not mutate its input.
        assert verify_aggregation(view, agg) == []
    assert not undetected, f"{corrupter.__name__} missed: {undetected}"


def test_identity_configs_consume_no_randomness():
    # The bit-identity contract: disabled (or small-m) aggregation must
    # return before any RNG use, or downstream streams would drift.
    view = view_from_problem(random_problem(11, "clustered").problem)
    for config in (AggregationConfig(max_group_size=0),
                   AggregationConfig(max_group_size=1),
                   AggregationConfig(max_group_size=4,
                                     min_subscribers=10**9)):
        rng = np.random.default_rng(123)
        before = rng.bit_generator.state
        agg = aggregate_subscriptions(view, config, rng)
        assert agg.is_identity
        assert rng.bit_generator.state == before
        assert verify_aggregation(view, agg) == []
        assert agg.num_groups == view.num_subscribers


def test_aggregated_slp1_solutions_pass_verification():
    failures = []
    for kind, seed in problem_cases(10, base_seed=6000):
        problem = random_problem(seed, kind).problem
        solution = slp1(problem, seed=0, aggregation=FORCED)
        checks = guaranteed_checks("SLP1", solution)
        report = verify_solution(problem, solution, checks)
        if not report.ok:
            failures.append(f"{kind}-{seed}:\n{report.summary(5)}")
        assert solution.info["aggregation"]["identity"] is False
    assert not failures, "\n".join(failures)


def test_aggregate_and_expand_are_distinct_profiler_spans():
    # ``python -m repro profile`` attributes stage time by span name;
    # the aggregation stages must show up as their own rows.
    problem = random_problem(2, "uniform").problem
    with profiled() as profiler:
        slp1(problem, seed=0, aggregation=FORCED)
    names = set(profiler.stats())
    assert {"aggregate", "assign", "expand"} <= names

    with profiled() as profiler:
        slp1(problem, seed=0)
    names = set(profiler.stats())
    assert "aggregate" not in names and "expand" not in names


def test_distribute_aggregated_reports_compression():
    view = view_from_problem(random_problem(5, "clustered").problem)
    rng = np.random.default_rng(0)
    dist = distribute_aggregated(view, rng, None, FORCED)
    assert dist.info["identity"] is False
    assert dist.info["groups"] == dist.aggregation.num_groups
    assert dist.info["compression"] \
        == view.num_subscribers / dist.aggregation.num_groups
    assert dist.target_of.shape == (view.num_subscribers,)
    assert (dist.target_of >= 0).all()
    assert (dist.target_of < view.num_targets).all()


def repair_view(beta_max=1.5, feasible_on_last=True):
    """30 members over 3 equal targets, two clusters plus 5 outliers.

    Target 0's filter covers cluster A (members 0-14), target 1's cluster
    B (15-24), target 2's both; nobody covers the outliers (25-29).
    Members 0-4 may not use target 2 and the outliers may not use
    target 0 (latency); ``feasible_on_last=False`` closes target 2 to all.
    """
    m = 30
    centers = np.empty((m, 2))
    centers[:15] = 20.0 + np.arange(15)[:, None] * 0.5
    centers[15:25] = 60.0 + np.arange(10)[:, None] * 0.5
    centers[25:] = 90.0
    feasible = np.ones((3, m), dtype=bool)
    feasible[2, :5] = False
    feasible[0, 25:] = False
    if not feasible_on_last:
        feasible[2] = False
    view = SLPView(
        subscriptions=RectSet(centers, centers + 1.0),
        network_points=np.zeros((m, 3)),
        feasible=feasible,
        kappas_effective=np.full(3, 1 / 3),
        alpha=2,
        beta=min(1.2, beta_max),
        beta_max=beta_max,
    )
    filters = [RectSet(np.array([[0.0, 0.0]]), np.array([[50.0, 50.0]])),
               RectSet(np.array([[50.0, 50.0]]), np.array([[80.0, 80.0]])),
               RectSet(np.array([[0.0, 0.0]]), np.array([[80.0, 80.0]]))]
    return view, filters


def hard_caps(view):
    return np.floor(view.beta_max * view.kappas_effective
                    * view.num_subscribers).astype(int)


class TestRepairMembers:
    """The exact member-level repair after group expansion."""

    def test_noop_when_within_caps(self):
        view, filters = repair_view()
        members = np.arange(30) % 3
        info = {}
        out = _repair_members(view, filters, members, info)
        assert np.array_equal(out, members)
        assert info["repaired"] == 0

    def test_repairs_overload_within_beta_max_caps(self):
        view, filters = repair_view()
        members = np.zeros(30, dtype=int)  # lbf 3 >> beta_max
        info = {}
        out = _repair_members(view, filters, members, info)
        assert info["repaired"] > 0
        assert info["repair_unrouted"] == 0
        loads = np.bincount(out, minlength=view.num_targets)
        assert (loads <= hard_caps(view)).all()
        assert loads.sum() == 30

    def test_moved_members_use_covering_or_feasible_targets(self):
        view, filters = repair_view()
        members = np.zeros(30, dtype=int)
        out = _repair_members(view, filters, members, {})
        coverage = view.coverage(filters)
        moved = np.flatnonzero(out != members)
        assert len(moved) > 0
        for j in moved:
            target = int(out[j])
            if coverage[:, j].any():
                assert coverage[target, j], f"member {j} on non-coverer"
            else:
                assert view.feasible[target, j], f"member {j} infeasible"

    def test_tight_beta_max_completes_best_effort(self):
        # Target 2 is closed and beta_max is 1: 30 members, 20 slots.
        view, filters = repair_view(beta_max=1.0, feasible_on_last=False)
        members = np.zeros(30, dtype=int)
        info = {}
        out = _repair_members(view, filters, members, info)
        assert info["repair_unrouted"] > 0
        assert info["repaired"] >= info["repair_unrouted"]
        assert out.shape == (30,)
        assert ((out >= 0) & (out < view.num_targets)).all()
