"""Tests for the dynamic subscriber assignment extension."""

import numpy as np
import pytest

from repro import GoogleGroupsConfig, generate_google_groups, one_level_problem
from repro.dynamic import (
    ChurnStep,
    DynamicPubSub,
    generate_churn_trace,
)


@pytest.fixture(scope="module")
def population_problem():
    config = GoogleGroupsConfig(num_subscribers=300, num_brokers=6,
                                interest_skew="H", broad_interests="L")
    return one_level_problem(generate_google_groups(seed=4, config=config))


def booted_system(problem, count=100, seed=1):
    system = DynamicPubSub(problem, seed=seed)
    for j in range(count):
        system.arrive(j)
    return system


class TestChurnTrace:
    def test_shapes_and_determinism(self):
        a = generate_churn_trace(200, 10, np.random.default_rng(0))
        b = generate_churn_trace(200, 10, np.random.default_rng(0))
        assert a.horizon == 10
        assert np.array_equal(a.initially_active, b.initially_active)
        for sa, sb in zip(a.steps, b.steps):
            assert np.array_equal(sa.arrivals, sb.arrivals)
            assert np.array_equal(sa.departures, sb.departures)

    def test_active_after_consistency(self):
        trace = generate_churn_trace(150, 20, np.random.default_rng(1),
                                     arrival_rate=6, departure_rate=6)
        active = trace.initially_active.copy()
        for i, step in enumerate(trace.steps):
            # Arrivals were inactive; departures active at sampling time.
            assert not active[step.arrivals].any()
            active[step.arrivals] = True
            assert active[step.departures].all()
            active[step.departures] = False
            assert np.array_equal(active, trace.active_after(i + 1))

    def test_never_empties(self):
        trace = generate_churn_trace(50, 30, np.random.default_rng(2),
                                     initial_active_fraction=0.1,
                                     arrival_rate=0.0, departure_rate=10.0)
        assert trace.active_after(30).sum() >= 1

    def test_growth_with_unbalanced_rates(self):
        trace = generate_churn_trace(400, 20, np.random.default_rng(3),
                                     initial_active_fraction=0.2,
                                     arrival_rate=10.0, departure_rate=1.0)
        assert trace.active_after(20).sum() > trace.initially_active.sum()

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            generate_churn_trace(10, 5, rng, initial_active_fraction=0.0)
        with pytest.raises(ValueError):
            generate_churn_trace(10, -1, rng)


class TestDynamicPubSub:
    def test_arrivals_assign_to_feasible_leaves(self, population_problem):
        system = booted_system(population_problem, count=60)
        assignment = system.assignment
        for j in range(60):
            row = population_problem.tree.leaf_row(int(assignment[j]))
            assert population_problem.feasible_leaf[row, j]

    def test_double_arrival_rejected(self, population_problem):
        system = booted_system(population_problem, count=5)
        with pytest.raises(ValueError):
            system.arrive(0)

    def test_depart_frees_capacity(self, population_problem):
        system = booted_system(population_problem, count=50)
        before = system.active_count
        system.depart(0)
        assert system.active_count == before - 1
        with pytest.raises(ValueError):
            system.depart(0)

    def test_filters_grow_only_until_reopt(self, population_problem):
        system = booted_system(population_problem, count=80)
        bandwidth_before = system.bandwidth()
        for j in range(40):
            system.depart(j)
        # Departures never shrink the online filters.
        assert system.bandwidth() == pytest.approx(bandwidth_before)
        # ... but the tight bandwidth drops.
        assert system.bandwidth(tight=True) < bandwidth_before * 1.0001

    def test_drift_is_real(self, population_problem):
        """After churn, online filters are strictly looser than tight ones."""
        system = booted_system(population_problem, count=100)
        trace = generate_churn_trace(300, 12, np.random.default_rng(5),
                                     arrival_rate=8, departure_rate=8)
        # Start from the trace's initial set to keep indices consistent.
        system = DynamicPubSub(population_problem, seed=1)
        for j in np.flatnonzero(trace.initially_active):
            system.arrive(int(j))
        for step in trace.steps:
            system.apply(step)
        snap = system.snapshot()
        assert snap.bandwidth >= snap.tight_bandwidth - 1e-6

    def test_reoptimize_reduces_bandwidth_and_counts_migrations(
            self, population_problem):
        trace = generate_churn_trace(300, 12, np.random.default_rng(5),
                                     arrival_rate=8, departure_rate=8)
        system = DynamicPubSub(population_problem, seed=1)
        for j in np.flatnonzero(trace.initially_active):
            system.arrive(int(j))
        for step in trace.steps:
            system.apply(step)
        drifted = system.bandwidth()
        info = system.reoptimize("Gr*")
        assert info["active"] == system.active_count
        assert info["migrations"] >= 0
        assert system.total_migrations == info["migrations"]
        assert system.bandwidth() <= drifted * 1.05

    def test_reoptimize_empty_system(self, population_problem):
        system = DynamicPubSub(population_problem, seed=0)
        assert system.reoptimize("Gr*")["migrations"] == 0

    def test_reoptimize_preserves_active_set(self, population_problem):
        system = booted_system(population_problem, count=70)
        active_before = set(system.active_indices.tolist())
        system.reoptimize("Gr*")
        assert set(system.active_indices.tolist()) == active_before

    def test_snapshot_fields(self, population_problem):
        system = booted_system(population_problem, count=30)
        snap = system.snapshot()
        assert snap.active_count == 30
        assert snap.bandwidth > 0
        assert snap.lbf > 0
        assert snap.total_migrations == 0

    def test_apply_step_roundtrip(self, population_problem):
        system = booted_system(population_problem, count=30)
        step = ChurnStep(step=0, arrivals=np.array([200, 201]),
                         departures=np.array([0, 1]))
        system.apply(step)
        assert system.active_count == 30
        assert system.assignment[200] >= 0
        assert system.assignment[0] == -1

    def test_load_caps_respected_online(self, population_problem):
        """Online arrivals respect the (current-population) caps whenever
        candidates allow it."""
        system = booted_system(population_problem, count=120)
        lbf = system.load_balance_factor()
        assert lbf <= population_problem.params.beta_max + 0.5


class TestActiveCount:
    """``active_count`` is a maintained counter; it must equal a recount."""

    @staticmethod
    def _drop_every_third(problem, **kwargs):
        # Gr*, then every third member left unassigned (-1): a
        # re-optimization may deactivate members.
        from repro.core.greedy import offline_greedy
        solution = offline_greedy(problem, **kwargs)
        solution.assignment = np.asarray(solution.assignment).copy()
        solution.assignment[::3] = -1
        return solution

    @pytest.mark.parametrize("seed", range(4))
    def test_counter_matches_recount(self, population_problem, monkeypatch,
                                     seed):
        from repro.core import registry
        monkeypatch.setitem(registry.ALGORITHMS, "Drop",
                            self._drop_every_third)
        rng = np.random.default_rng(seed)
        m = population_problem.num_subscribers
        system = DynamicPubSub(population_problem, seed=seed)
        reopts = 0
        for _ in range(400):
            assignment = system.assignment
            roll = rng.random()
            if roll < 0.03:
                before = system.active_count
                info = system.reoptimize(str(rng.choice(["Gr*", "Drop"])))
                reopts += info["committed"]
                if info["committed"]:
                    assert system.active_count <= before
            elif roll < 0.6 or not (assignment >= 0).any():
                inactive = np.flatnonzero(assignment < 0)
                system.arrive(int(rng.choice(inactive)))
            else:
                system.depart(int(rng.choice(np.flatnonzero(assignment >= 0))))
            recount = int((system.assignment >= 0).sum())
            assert system.active_count == recount
            assert system.snapshot().active_count == recount
            assert recount <= m
        assert reopts > 0

    def test_drop_leaves_members_unassigned(self, population_problem,
                                            monkeypatch):
        from repro.core import registry
        monkeypatch.setitem(registry.ALGORITHMS, "Drop",
                            self._drop_every_third)
        system = booted_system(population_problem, count=60)
        system.reoptimize("Drop")
        assert system.active_count == 40
        assert len(system.active_indices) == 40
        system.arrive(int(np.flatnonzero(system.assignment < 0)[0]))
        assert system.active_count == 41
