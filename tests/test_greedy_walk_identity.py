"""The one-walk greedy placement against the two-walk loop it replaced.

``_greedy_assign_one`` costs every candidate leaf's path once and
commits the winner from that walk; the reference costs the candidates,
then walks the winner's chain again in ``commit``.  Seeded random
sequences drive both side by side and demand bit-identical costs,
choices and slot state after every placement.  The problems are built
to reach every branch of the step: full nodes (``count == alpha``),
rects already inside a slot, multilevel chains, ``allowed`` masks and
the best-effort fallback past both load caps.  The two-walk form lives
in :mod:`tests.reference_loops`.
"""

import numpy as np
import pytest

from repro import (
    SAParameters,
    SAProblem,
    build_hierarchical_tree,
    build_one_level_tree,
    offline_greedy,
)
from repro.core.greedy import _greedy_assign_one, _LoadCaps, _TreeFilterState
from repro.geometry import RectSet

from .reference_loops import TreeFilterStateReference, greedy_assign_one_reference


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype \
        and a.tobytes() == b.tobytes()


def random_problem(rng, *, multilevel, dim, alpha, m=120, brokers=9):
    """Clustered boxes, some nested in others and some repeated."""
    publisher = np.zeros(2)
    broker_points = rng.normal(size=(brokers, 2))
    if multilevel:
        tree = build_hierarchical_tree(publisher, broker_points, 2, rng)
    else:
        tree = build_one_level_tree(publisher, broker_points)
    anchors = rng.integers(0, 3, size=(m, 1)) * 40.0
    lo = anchors + rng.uniform(0, 10, size=(m, dim))
    hi = lo + rng.uniform(0.5, 8, size=(m, dim))
    inner = rng.random(m) < 0.3            # shrink into an earlier box
    for j in np.flatnonzero(inner):
        k = int(rng.integers(0, j)) if j else 0
        width = hi[k] - lo[k]
        lo[j] = lo[k] + 0.25 * width
        hi[j] = hi[k] - 0.25 * width
    repeat = rng.random(m) < 0.1
    for j in np.flatnonzero(repeat):
        k = int(rng.integers(0, j)) if j else 0
        lo[j], hi[j] = lo[k], hi[k]
    # Rounded corners make equal costs and exact containment common.
    lo, hi = np.round(lo), np.maximum(np.round(hi), np.round(lo))
    params = SAParameters(alpha=alpha, max_delay=float(rng.uniform(0.1, 1.0)),
                          beta=1.1, beta_max=1.3)
    return SAProblem(tree, rng.normal(size=(m, 2)), RectSet(lo, hi), params)


def assert_same_state(state, ref):
    assert same_bits(state.lo, ref.lo)
    assert same_bits(state.hi, ref.hi)
    assert same_bits(state.count, ref.count)
    used = np.arange(state.alpha)[None, :] < state.count[:, None]
    volume = np.prod(np.maximum(state.hi - state.lo, 0.0), axis=2)
    assert same_bits(state.volume[used], volume[used])
    assert (state.volume[~used] == -np.inf).all()


CASES = [(multilevel, dim, alpha, seed)
         for multilevel in (False, True)
         for dim, alpha in ((1, 1), (2, 2), (3, 3), (7, 2))
         for seed in range(3)]


@pytest.mark.parametrize("multilevel,dim,alpha,seed", CASES)
def test_placements_match_two_walk_reference(multilevel, dim, alpha, seed):
    rng = np.random.default_rng(1000 * seed + 10 * dim + alpha)
    problem = random_problem(rng, multilevel=multilevel, dim=dim, alpha=alpha)
    state, ref = _TreeFilterState(problem), TreeFilterStateReference(problem)
    assert (state.max_depth > 1) == multilevel
    num_leaves = problem.num_leaf_brokers
    loads = np.zeros(num_leaves, dtype=int)
    stages = (problem.params.beta, problem.params.beta_max)
    subs = problem.subscriptions
    seen = {"full": 0, "contained": 0, "fallback": 0, "allowed": 0}

    for j in rng.permutation(problem.num_subscribers):
        lo, hi = subs.lo[j], subs.hi[j]
        size = int(rng.integers(1, num_leaves + 1))
        rows = np.sort(rng.choice(num_leaves, size=size, replace=False))
        assert same_bits(state.path_costs(rows, lo, hi),
                         ref.path_costs(rows, lo, hi))

        allowed = None
        if rng.random() < 0.3:
            allowed = rng.random(num_leaves) < 0.5
            allowed[int(rng.integers(num_leaves))] = True
            seen["allowed"] += 1
        # A small population shrinks both load caps until nothing is open.
        population = int(rng.integers(1, 2 * problem.num_subscribers))
        respect_latency = bool(rng.random() < 0.8)
        before = (ref.lo.copy(), ref.hi.copy())

        row, ok = _greedy_assign_one(problem, state, loads, int(j),
                                     respect_latency,
                                     _LoadCaps(problem, population),
                                     allowed=allowed)
        ref_row, ref_ok = greedy_assign_one_reference(
            problem, ref, loads, int(j), respect_latency, stages,
            population=population, allowed=allowed)
        assert (row, ok) == (ref_row, ref_ok)
        ref.commit(ref_row, lo, hi)
        assert_same_state(state, ref)
        loads[row] += 1

        seen["fallback"] += not ok
        seen["full"] += int((ref.count == alpha).any())
        seen["contained"] += (same_bits(before[0], ref.lo)
                              and same_bits(before[1], ref.hi))

    assert all(seen.values()), seen


@pytest.mark.parametrize("multilevel", (False, True))
def test_commit_without_costing_matches_reference(multilevel):
    """``commit`` on its own, also on filters loaded from a solution."""
    rng = np.random.default_rng(17)
    problem = random_problem(rng, multilevel=multilevel, dim=2, alpha=2)
    state, ref = _TreeFilterState(problem), TreeFilterStateReference(problem)
    filters = offline_greedy(problem).filters
    state.load_filters(filters)
    ref.load_filters(filters)
    assert_same_state(state, ref)
    subs = problem.subscriptions
    for j in rng.permutation(problem.num_subscribers):
        row = int(rng.integers(problem.num_leaf_brokers))
        state.commit(row, subs.lo[j], subs.hi[j])
        ref.commit(row, subs.lo[j], subs.hi[j])
        assert_same_state(state, ref)


def test_commit_candidate_needs_a_fresh_walk():
    rng = np.random.default_rng(3)
    problem = random_problem(rng, multilevel=False, dim=2, alpha=2)
    state = _TreeFilterState(problem)
    lo, hi = problem.subscriptions.lo[0], problem.subscriptions.hi[0]
    with pytest.raises(RuntimeError):
        state.commit_candidate(0)
    state.path_costs(np.array([0, 1]), lo, hi)
    state.commit_candidate(1)
    with pytest.raises(RuntimeError):
        state.commit_candidate(1)
