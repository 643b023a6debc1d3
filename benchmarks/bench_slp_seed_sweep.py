"""SLP's work across rounding seeds on the repository benchmark's instance.

The ``assign`` workload of ``perfbench/`` pins aggregated multilevel SLP
at m=10,000 (GoogleGroups H/L, population seed 7, 64 brokers, out-degree
8, groups of at most 64) to rounding seed 6.  This bench runs the same
instance at seeds 1-8, plus one small unaggregated case (m=1,500,
population seed 2, aggregation 32, seed 6) that once needed 373 LP
solves.  It prints wall time, LP solves and bandwidth per run, checks
every solution against the paper's invariants, and bounds the LP
solves: their count is deterministic, so the bounds need no wall-clock
budget.  A view that no filter can make load-feasible is accepted at
its routing floor instead of exhausting FilterAssign's iterations; that
floor is what keeps the slowest seeds near the median.
"""

import time

import numpy as np

from _shared import emit, emit_json, format_table
from repro import GoogleGroupsConfig, generate_google_groups, multilevel_problem
from repro.core.slp import AggregationConfig, slp
from repro.metrics import total_bandwidth
from repro.verify import guaranteed_checks, verify_solution

SEEDS = range(1, 9)
#: LP solves allowed per seed on the benchmark instance, and on the
#: small case.
MAX_LP_CALLS = 600
MAX_LP_CALLS_SMALL = 200


def instance(subscribers, brokers, population_seed):
    config = GoogleGroupsConfig(num_subscribers=subscribers,
                                num_brokers=brokers)
    return multilevel_problem(generate_google_groups(population_seed, config),
                              max_out_degree=8, seed=population_seed)


def run(label, problem, seed, group_size):
    started = time.perf_counter()
    solution = slp(problem, seed=seed,
                   aggregation=AggregationConfig(max_group_size=group_size))
    wall = time.perf_counter() - started
    report = verify_solution(problem, solution,
                             guaranteed_checks("SLP", solution))
    return [label, seed, round(wall, 2), solution.info["lp_calls"],
            total_bandwidth(solution.filters), report.ok]


def compute():
    problem = instance(10_000, 64, 7)
    rows = [run("m=10000", problem, seed, 64) for seed in SEEDS]
    rows.append(run("m=1500 pop 2", instance(1500, 64, 2), 6, 32))
    return rows


def test_slp_seed_sweep(benchmark):
    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    headers = ["instance", "seed", "wall s", "LP solves", "bandwidth",
               "verified"]
    sweep = rows[:-1]
    walls = [row[2] for row in sweep]
    emit("\n== SLP across rounding seeds (perfbench assign instance) ==")
    emit(format_table(headers, rows))
    emit(f"slowest / median wall: {max(walls) / np.median(walls):.2f}x; "
         f"median bandwidth {np.median([row[4] for row in sweep]):.4g}")
    emit_json("slp_seed_sweep", headers, rows)
    assert all(row[5] for row in rows)
    assert all(row[3] <= MAX_LP_CALLS for row in sweep)
    assert rows[-1][3] <= MAX_LP_CALLS_SMALL
