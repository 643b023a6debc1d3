"""SLP's work across rounding seeds on the repository benchmark's instance.

The ``assign`` workload of ``perfbench/`` pins aggregated multilevel SLP
at m=10,000 (GoogleGroups H/L, population seed 7, 64 brokers, out-degree
8, groups of at most 64) to rounding seed 6.  This bench runs the same
instance at seeds 1-8, plus one small multilevel case (m=1,500,
population seed 2, groups of at most 32, seed 6) that once needed 373 LP
solves, and one-level SLP1 on the serve population (1,000 GoogleGroups
H/L members, 8 brokers, population seed 7) at seeds 0-8.  It prints
wall time, LP solves (and how many of them were infeasible ``Sb``
draws) and bandwidth per run, checks every solution
against the paper's invariants, and bounds the LP solves: their count
is deterministic, so the bounds need no wall-clock budget.  A view that
no filter can make load-feasible is accepted at its routing floor
instead of exhausting FilterAssign's iterations; that floor is what
keeps the slowest seeds near the median.  A FilterAssign iteration with
no valid draw doubles ``g`` at once, which is what bounds the one-level
rows.
"""

import time

import numpy as np

from _shared import emit, emit_json, format_table
from repro import (
    GoogleGroupsConfig,
    generate_google_groups,
    multilevel_problem,
    one_level_problem,
)
from repro.core.slp import AggregationConfig, slp, slp1
from repro.metrics import total_bandwidth
from repro.verify import guaranteed_checks, verify_solution

SEEDS = range(1, 9)
ONE_LEVEL_SEEDS = range(0, 9)
#: LP solves allowed per seed on the benchmark instance, on the small
#: case, and per SLP1 seed on the serve population.
MAX_LP_CALLS = 600
MAX_LP_CALLS_SMALL = 200
MAX_LP_CALLS_ONE_LEVEL = 30


def instance(subscribers, brokers, population_seed):
    config = GoogleGroupsConfig(num_subscribers=subscribers,
                                num_brokers=brokers)
    return multilevel_problem(generate_google_groups(population_seed, config),
                              max_out_degree=8, seed=population_seed)


def serve_population():
    config = GoogleGroupsConfig(num_subscribers=1000, num_brokers=8,
                                interest_skew="H", broad_interests="L")
    return one_level_problem(generate_google_groups(7, config))


def run(label, problem, seed, group_size=None):
    started = time.perf_counter()
    if group_size is None:
        algorithm = "SLP1"
        solution = slp1(problem, seed=seed)
        counts = solution.info["filter_assign"]
    else:
        algorithm = "SLP"
        solution = slp(problem, seed=seed, aggregation=AggregationConfig(
            max_group_size=group_size))
        counts = solution.info
    wall = time.perf_counter() - started
    report = verify_solution(problem, solution,
                             guaranteed_checks(algorithm, solution))
    return [label, seed, round(wall, 2), counts["lp_calls"],
            counts["lp_infeasible"], total_bandwidth(solution.filters),
            report.ok]


def compute():
    problem = instance(10_000, 64, 7)
    rows = [run("m=10000", problem, seed, 64) for seed in SEEDS]
    rows.append(run("m=1500 pop 2", instance(1500, 64, 2), 6, 32))
    serve = serve_population()
    rows += [run("serve SLP1", serve, seed) for seed in ONE_LEVEL_SEEDS]
    return rows


def summary(rows):
    walls = [row[2] for row in rows]
    return (f"slowest / median wall: {max(walls) / np.median(walls):.2f}x; "
            f"median bandwidth {np.median([row[5] for row in rows]):.4g}")


def test_slp_seed_sweep(benchmark):
    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    headers = ["instance", "seed", "wall s", "LP solves", "infeasible LPs",
               "bandwidth", "verified"]
    sweep = rows[:len(SEEDS)]
    small = rows[len(SEEDS)]
    one_level = rows[len(SEEDS) + 1:]
    emit("\n== SLP across rounding seeds (perfbench assign instance) ==")
    emit(format_table(headers, rows))
    emit(f"m=10000: {summary(sweep)}")
    emit(f"serve SLP1: {summary(one_level)}")
    emit_json("slp_seed_sweep", headers, rows)
    assert all(row[6] for row in rows)
    assert all(row[3] <= MAX_LP_CALLS for row in sweep)
    assert small[3] <= MAX_LP_CALLS_SMALL
    assert all(row[3] <= MAX_LP_CALLS_ONE_LEVEL for row in one_level)
