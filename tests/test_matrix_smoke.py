"""Smoke matrix: every algorithm on every workload family.

A broad robustness net: all eight registered algorithms must produce a
fully-assigned, nesting-correct solution on small instances of each of
the paper's three workload families and on both tree shapes.
"""

import numpy as np
import pytest

from repro import (
    ALGORITHMS,
    GoogleGroupsConfig,
    GridConfig,
    RssConfig,
    generate_google_groups,
    generate_grid,
    generate_rss,
    multilevel_problem,
    one_level_problem,
)
from repro.verify import (
    CHECK_ASSIGNMENT,
    CHECK_COMPLEXITY,
    CHECK_NESTING,
    verify_solution,
)

STRUCTURAL = {CHECK_ASSIGNMENT, CHECK_NESTING, CHECK_COMPLEXITY}

SIZE = dict(num_subscribers=200, num_brokers=6)


def make_workload(family: str):
    if family == "googlegroups":
        return generate_google_groups(seed=13, config=GoogleGroupsConfig(**SIZE))
    if family == "rss":
        return generate_rss(seed=13, config=RssConfig(**SIZE))
    return generate_grid(seed=13, config=GridConfig(**SIZE))


FAMILIES = ["googlegroups", "rss", "grid"]
FAST_ALGOS = ["Gr", "Gr*", "Gr-no-latency", "Closest",
              "Closest-no-balance", "Balance"]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("name", FAST_ALGOS)
def test_fast_algorithms_one_level(family, name):
    problem = one_level_problem(make_workload(family))
    solution = ALGORITHMS[name](problem)
    report = verify_solution(problem, solution, STRUCTURAL)
    assert report.ok, (family, name, report.summary())


@pytest.mark.parametrize("family", FAMILIES)
def test_slp1_one_level(family):
    problem = one_level_problem(make_workload(family))
    solution = ALGORITHMS["SLP1"](problem, seed=0)
    report = verify_solution(problem, solution, STRUCTURAL)
    assert report.ok, report.summary()


@pytest.mark.parametrize("family", FAMILIES)
def test_slp_multilevel(family):
    workload = make_workload(family)
    problem = multilevel_problem(workload, max_out_degree=3,
                                 max_delay=0.8, beta=2.0, beta_max=2.5,
                                 seed=1)
    solution = ALGORITHMS["SLP"](problem, seed=0)
    report = verify_solution(problem, solution, STRUCTURAL)
    assert report.ok, report.summary()


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("name", ["Gr", "Gr*"])
def test_greedy_multilevel(family, name):
    workload = make_workload(family)
    problem = multilevel_problem(workload, max_out_degree=3,
                                 max_delay=0.8, beta=2.0, beta_max=2.5,
                                 seed=1)
    solution = ALGORITHMS[name](problem)
    report = verify_solution(problem, solution,
                             {CHECK_ASSIGNMENT, CHECK_NESTING})
    assert report.ok, (family, name, report.summary())


@pytest.mark.parametrize("family", FAMILIES)
def test_every_leaf_assignment_is_latency_feasible_when_respected(family):
    problem = one_level_problem(make_workload(family))
    for name in ("Gr", "Gr*", "Balance", "SLP1"):
        kwargs = {"seed": 0} if name == "SLP1" else {}
        solution = ALGORITHMS[name](problem, **kwargs)
        delays = problem.delays(solution.assignment)
        finite = delays[np.isfinite(delays)]
        assert (finite <= problem.params.max_delay + 1e-6).all(), \
            (family, name)
