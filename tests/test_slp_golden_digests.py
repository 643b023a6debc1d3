"""Pinned SLP outputs at m=3,000, and the LP-solve count's honesty.

The digests were recorded before SLP's per-item loops (k-means, the
alpha-MEB cover, greedy slot costs) became array steps; any float that
moves in those kernels changes an assignment or a filter and fails
here.  The one-level instance runs SLP1 unaggregated; the multilevel
one aggregates (groups of <= 32), so the k-means splitter, FilterGen's
super-subscriptions and the weighted greedy all take part.
"""

import importlib

import pytest

from repro.core.slp import AggregationConfig, slp, slp1
from repro.metrics import total_bandwidth
from repro.workloads import (
    GoogleGroupsConfig,
    generate_google_groups,
    multilevel_problem,
    one_level_problem,
)

from .test_slp_aggregate_equivalence import FORCED, multilevel, solution_digest

M = 3_000


def test_slp1_one_level_digest():
    workload = generate_google_groups(
        6, GoogleGroupsConfig(num_subscribers=M, num_brokers=8))
    solution = slp1(one_level_problem(workload), seed=6)
    assert solution_digest(solution) == \
        "63f9da79d06f97b2054085f18c32d6071085188b39d2be215b3d87d26f515d9c"
    assert total_bandwidth(solution.filters) == 4469083.631111461


def test_slp_multilevel_aggregated_digest():
    workload = generate_google_groups(
        5, GoogleGroupsConfig(num_subscribers=M, num_brokers=32))
    problem = multilevel_problem(workload, max_out_degree=4, seed=5)
    solution = slp(problem, seed=5,
                   aggregation=AggregationConfig(max_group_size=32))
    assert solution.info["aggregated_levels"] >= 1
    assert solution_digest(solution) == \
        "76e8279e43d083a002ea2d295efadf55d9974b8ddf67b9c6206460fdaf45be3d"
    assert total_bandwidth(solution.filters) == 14688947.699932316


@pytest.mark.parametrize("seed", (2, 5))
def test_lp_calls_counts_every_solve(monkeypatch, seed):
    """``info["lp_calls"]`` is the number of LPs actually solved.

    On these seeds a helper retries with a fresh ``Sb`` and a candidate
    is built before later solves, which the count once missed.
    """
    lp_relax = importlib.import_module("repro.core.slp.lp_relax")
    solve = lp_relax.solve_bounded_lp
    solves = []

    def counted(*args, **kwargs):
        solves.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(lp_relax, "solve_bounded_lp", counted)
    solution = slp(multilevel(seed), seed=seed, aggregation=FORCED)
    assert solution.info["lp_calls"] == len(solves) > 0
