"""Ablation — locality-seeded assignment vs plain max-flow.

The paper's step 2 is "some" maximum flow; this library picks a
locality-preserving one (seed each subscriber at the covering broker
with the tightest rectangle / least enlargement, then complete with
augmenting paths).  The plain variant routes every subscriber with the
same augmenting paths from an empty assignment, with no locality seed.
This bench quantifies what the seed buys on a region-correlated
workload: same feasibility (max-flow value is unique), lower final
bandwidth.
"""

import numpy as np

from _shared import BROKERS_ONE_LEVEL, SEED, emit, format_table, scale_banner
from repro import GoogleGroupsConfig, generate_google_groups, one_level_problem
from repro.core.problem import SASolution, filters_from_assignment
from repro.core.slp.assign_flow import (
    assign_subscriptions,
    assign_subscriptions_maxflow,
)
from repro.core.slp.sampling import filter_assign
from repro.core.slp.view import view_from_problem
from repro.metrics import evaluate_solution

SUBSCRIBERS = 800


def compute():
    config = GoogleGroupsConfig(num_subscribers=SUBSCRIBERS,
                                num_brokers=BROKERS_ONE_LEVEL,
                                interest_skew="H", broad_interests="L")
    problem = one_level_problem(generate_google_groups(SEED, config))
    view = view_from_problem(problem)
    preliminary = filter_assign(view, np.random.default_rng(1))

    rows = []
    for label, assign in (("locality-seeded flow", assign_subscriptions),
                          ("plain max-flow",
                           assign_subscriptions_maxflow)):
        outcome = assign(view, preliminary.filters)
        assignment = problem.tree.leaves[outcome.target_of]
        filters = filters_from_assignment(problem, assignment,
                                          np.random.default_rng(0))
        report = evaluate_solution(label,
                                   SASolution(problem, assignment, filters))
        rows.append([label, report.bandwidth, report.lbf,
                     outcome.feasible])
    return rows


def test_ablation_assignment(benchmark):
    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    emit(f"\n== Ablation: assignment flow choice (m={SUBSCRIBERS}) ==")
    emit(scale_banner())
    emit(format_table(["variant", "bandwidth", "lbf", "flow feasible"],
                      rows))
    # Feasibility agrees (same max-flow value); locality helps bandwidth
    # on region-correlated workloads.
    assert rows[0][3] == rows[1][3]
    assert rows[0][1] <= rows[1][1] * 1.2
