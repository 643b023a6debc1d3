"""Properties of the library's one max-flow engine.

Every assignment routes with the augmenting paths of
``repro.core.slp.assign_flow``: the plain routing from an empty
assignment (the ablation's baseline and FilterAssign's floor) and the
breakpoint routing behind the ``Balance`` baseline.  ``Dinic`` is the
independent oracle for the max-flow value, and a brute force over the
cap breakpoints, in exact rationals, for Balance's least lbf.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SAParameters, SAProblem, balance_assignment, build_one_level_tree
from repro.core.slp.assign_flow import (
    _route_from_empty,
    min_lbf_routing,
    routing_floor,
)
from repro.core.slp.view import SLPView
from repro.flow import Dinic
from repro.geometry import RectSet


def equal_kappas(n):
    return np.full(n, 1.0 / n)


def route(candidates, kappas, beta, beta_max):
    """(assignment, unrouted, achieved lbf) of the plain routing."""
    candidates = [np.asarray(c, dtype=np.int64) for c in candidates]
    assigned, _, unrouted, betabar, _ = _route_from_empty(
        candidates, kappas, beta, beta_max)
    return assigned, unrouted, betabar


def random_candidates(rng, brokers, subs, allow_empty=False):
    low = 0 if allow_empty else 1
    return [rng.choice(brokers, size=int(rng.integers(low, brokers + 1)),
                       replace=False) for _ in range(subs)]


def mask_of(candidates, brokers):
    mask = np.zeros((brokers, len(candidates)), dtype=bool)
    for j, options in enumerate(candidates):
        mask[np.asarray(options, dtype=int), j] = True
    return mask


def dinic_flow(candidates, caps):
    """Maximum flow of source -> brokers (caps) -> subscribers -> sink."""
    brokers, subs = len(caps), len(candidates)
    sink = 1 + brokers + subs
    solver = Dinic(sink + 1)
    for i, cap in enumerate(caps):
        solver.add_edge(0, 1 + i, int(cap))
    for j, options in enumerate(candidates):
        solver.add_edge(1 + brokers + j, sink, 1)
        for i in options:
            solver.add_edge(1 + int(i), 1 + brokers + j, 1)
    return solver.max_flow(0, sink)


class TestAssignByFlow:
    """The plain routing from an empty assignment."""

    def test_simple_feasible(self):
        candidates = [[0], [1], [0, 1]]
        assigned, unrouted, _ = route(candidates, equal_kappas(2), 1.5, 2.0)
        assert not unrouted
        assert assigned[0] == 0
        assert assigned[1] == 1
        assert assigned[2] in (0, 1)

    def test_respects_capacities(self):
        # 6 subscribers, 2 brokers, all flexible; beta=1 -> 3 each.
        candidates = [[0, 1]] * 6
        assigned, unrouted, _ = route(candidates, equal_kappas(2), 1.0, 1.0)
        assert not unrouted
        assert np.bincount(assigned, minlength=2).tolist() == [3, 3]

    def test_escalation_needed(self):
        # 4 subscribers forced to broker 0 out of 2: lbf must reach 2.
        candidates = [[0]] * 4
        _, unrouted, betabar = route(candidates, equal_kappas(2), 1.0, 2.5)
        assert not unrouted
        assert betabar > 1.9

    def test_infeasible_within_beta_max(self):
        candidates = [[0]] * 4
        assigned, unrouted, _ = route(candidates, equal_kappas(2), 1.0, 1.5)
        assert unrouted
        assert (assigned[unrouted] == -1).all()

    def test_empty_candidate_list_unassigned(self):
        candidates = [[], [0]]
        assigned, unrouted, _ = route(candidates, equal_kappas(1), 2.0, 2.0)
        assert unrouted == [0]
        assert assigned.tolist() == [-1, 0]

    @given(st.integers(0, 5000), st.integers(2, 5), st.integers(4, 24))
    @settings(max_examples=30, deadline=None)
    def test_assignment_only_uses_candidates(self, seed, brokers, subs):
        rng = np.random.default_rng(seed)
        candidates = random_candidates(rng, brokers, subs)
        assigned, _, _ = route(candidates, equal_kappas(brokers), 1.2, 3.0)
        for j, target in enumerate(assigned):
            if target >= 0:
                assert target in candidates[j]

    @given(st.integers(0, 5000))
    @settings(max_examples=20, deadline=None)
    def test_loads_within_escalated_caps(self, seed):
        rng = np.random.default_rng(seed)
        brokers, subs = 4, 20
        candidates = random_candidates(rng, brokers, subs)
        assigned, _, betabar = route(candidates, equal_kappas(brokers),
                                     1.1, 2.0)
        loads = np.bincount(assigned[assigned >= 0], minlength=brokers)
        caps = np.floor(betabar * equal_kappas(brokers) * subs)
        assert (loads <= caps).all()

    @given(st.integers(0, 5000), st.integers(2, 6), st.integers(4, 30),
           st.floats(0.5, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_flow_value_equals_dinic(self, seed, brokers, subs, beta):
        rng = np.random.default_rng(seed)
        candidates = random_candidates(rng, brokers, subs, allow_empty=True)
        kappas = rng.dirichlet(np.ones(brokers))
        assigned, unrouted, betabar = route(candidates, kappas, beta, beta)
        caps = np.floor(betabar * kappas * subs).astype(int)
        assert subs - len(unrouted) == dinic_flow(candidates, caps)
        assert ((assigned >= 0) == ~np.isin(np.arange(subs), unrouted)).all()


def routing_view(rng, brokers, subs):
    return SLPView(
        subscriptions=RectSet(np.zeros((subs, 2)), np.ones((subs, 2))),
        network_points=np.zeros((subs, 2)),
        feasible=rng.random((brokers, subs)) < 0.4,
        kappas_effective=rng.dirichlet(np.ones(brokers)),
        alpha=2, beta=1.0, beta_max=float(rng.uniform(1.0, 1.5)))


class TestRoutingFloor:
    @given(st.integers(0, 5000), st.integers(2, 6), st.integers(4, 30))
    @settings(max_examples=40, deadline=None)
    def test_floor_is_what_dinic_cannot_route(self, seed, brokers, subs):
        view = routing_view(np.random.default_rng(seed), brokers, subs)
        candidates = [np.flatnonzero(view.feasible[:, j])
                      for j in range(subs)]
        caps = np.floor(view.beta_max * view.kappas_effective * subs)
        assert routing_floor(view) == subs - dinic_flow(candidates, caps)


def brute_force_min_lbf(candidates, weights):
    """The least breakpoint lbf at which Dinic routes everyone, exactly.

    ``kappa_i = weights_i / sum(weights)``, so the breakpoints
    ``c / (kappa_i m)`` and the caps at them are exact rationals.
    """
    m, total = len(candidates), sum(weights)
    breakpoints = sorted({Fraction(c * total, w * m)
                          for w in weights for c in range(1, m + 1)})
    for b in breakpoints:
        caps = [int(b * w * m / total) for w in weights]
        if dinic_flow(candidates, caps) == m:
            return b
    return None


class TestMinFeasibleLbf:
    """Balance's routing: the least load-balance factor, exactly."""

    def test_balanced_instance_lbf_one(self):
        candidates = [[0, 1]] * 10
        assigned, lbf = min_lbf_routing(mask_of(candidates, 2),
                                        equal_kappas(2), 64.0)
        # 5/5 split: lbf = 5 / (0.5 * 10) = 1.
        assert lbf == 1.0
        assert np.bincount(assigned, minlength=2).tolist() == [5, 5]

    def test_forced_imbalance(self):
        # 3 of 4 subscribers must use broker 0 -> min lbf = 3/(0.5*4) = 1.5.
        candidates = [[0], [0], [0], [0, 1]]
        assigned, lbf = min_lbf_routing(mask_of(candidates, 2),
                                        equal_kappas(2), 64.0)
        assert (assigned >= 0).all()
        assert lbf == 1.5

    def test_infeasible_returns_flag(self):
        assigned, _ = min_lbf_routing(np.zeros((2, 1), dtype=bool),
                                      equal_kappas(2), 4.0)
        assert (assigned < 0).all()

    def test_lbf_at_most_any_feasible_beta(self):
        rng = np.random.default_rng(7)
        brokers, subs = 3, 15
        candidates = random_candidates(rng, brokers, subs)
        _, unrouted, _ = route(candidates, equal_kappas(brokers), 3.0, 3.0)
        assigned, lbf = min_lbf_routing(mask_of(candidates, brokers),
                                        equal_kappas(brokers), 64.0)
        if not unrouted:
            assert (assigned >= 0).all()
            assert lbf <= 3.0

    @given(st.integers(0, 5000), st.integers(2, 5), st.integers(3, 16))
    @settings(max_examples=40, deadline=None)
    def test_lbf_equals_brute_force_minimum(self, seed, brokers, subs):
        rng = np.random.default_rng(seed)
        candidates = random_candidates(rng, brokers, subs)
        weights = [int(w) for w in rng.integers(1, 6, size=brokers)]
        kappas = np.array(weights) / sum(weights)
        assigned, lbf = min_lbf_routing(mask_of(candidates, brokers),
                                        kappas, 64.0)
        best = brute_force_min_lbf(candidates, weights)
        assert lbf == pytest.approx(float(best), rel=1e-12)
        assert (assigned >= 0).all()
        for j, target in enumerate(assigned):
            assert target in candidates[j]
        loads = np.bincount(assigned, minlength=brokers)
        assert (loads <= np.floor(lbf * kappas * subs)).all()

    def test_balance_reports_the_routing(self):
        rng = np.random.default_rng(3)
        m, brokers = 60, 4
        tree = build_one_level_tree(np.zeros(2), rng.uniform(-5, 5, (brokers, 2)))
        subs = RectSet(np.zeros((m, 2)), np.ones((m, 2)))
        problem = SAProblem(tree, rng.uniform(-5, 5, (m, 2)), subs,
                            SAParameters(max_delay=0.6, beta=1.2, beta_max=1.5))
        solution = balance_assignment(problem)
        _, lbf = min_lbf_routing(problem.feasible_leaf, problem.kappas, 64.0)
        assert solution.info["achieved_lbf"] == lbf
        assert solution.info["feasible_flow"]
        assert problem.load_balance_factor(solution.assignment) <= lbf
