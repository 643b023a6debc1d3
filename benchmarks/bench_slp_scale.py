#!/usr/bin/env python
"""Scaling curve: aggregated multi-level SLP at m = 1k / 10k / 100k.

The paper runs SLP at 100k-1M subscribers (CPLEX, hours of wall-clock);
the reproduction reaches the paper's 100k scale through subscription
aggregation (:mod:`repro.core.slp.aggregate`).  This bench runs the
aggregated pipeline at each size, verifies every solution against the
paper invariants, and emits a ``BENCH_slp_scale.json`` payload in the
profile-payload shape (``total_seconds`` / ``calibration_seconds`` /
``stages``, one stage per size) through the shared gated-run driver
(:class:`repro.perf.regression.GatedRun`), which compares runs against
the committed baseline::

    PYTHONPATH=src python benchmarks/bench_slp_scale.py \
        --json benchmarks/baselines/BENCH_slp_scale.json      # record
    PYTHONPATH=src python benchmarks/bench_slp_scale.py --sizes 5000 \
        --check-against benchmarks/baselines/BENCH_slp_scale.json

``--check-against`` compares only the sizes actually run (stages on one
side are skipped by the gate), so the CI smoke job can gate on a cheap
m=5000 run while the committed baseline carries the full curve.

Unlike the paper-figure benches this is a standalone script, not a
pytest bench: the 100k point is a scale proof, not part of the default
benchmark suite.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro import GoogleGroupsConfig, generate_google_groups, multilevel_problem
from repro.core.slp import AggregationConfig, slp
from repro.metrics import total_bandwidth
from repro.perf.regression import GatedRun, add_gate_arguments
from repro.verify import guaranteed_checks, verify_solution

DEFAULT_SIZES = (1000, 10000, 100000)
BROKERS = 64
MAX_OUT_DEGREE = 8
SEED = 7


def run_one(m: int, aggregate: int, seed: int) -> dict:
    config = GoogleGroupsConfig(num_subscribers=m, num_brokers=BROKERS,
                                interest_skew="H", broad_interests="L")
    problem = multilevel_problem(generate_google_groups(seed, config),
                                 max_out_degree=MAX_OUT_DEGREE, seed=seed)
    aggregation = AggregationConfig(max_group_size=aggregate)
    started = time.perf_counter()
    solution = slp(problem, seed=seed, aggregation=aggregation)
    elapsed = time.perf_counter() - started

    report = verify_solution(problem, solution,
                             guaranteed_checks("SLP", solution))
    if not report.ok:
        raise SystemExit(f"m={m}: solution failed verification:\n"
                         f"{report.summary(5)}")
    return {
        "name": f"m={m}",
        "calls": 1,
        "seconds": elapsed,
        "subscribers": m,
        "bandwidth": total_bandwidth(solution.filters),
        "lp_calls": solution.info["lp_calls"],
        "aggregated_levels": solution.info.get("aggregated_levels", 0),
        "aggregated_groups": solution.info.get("aggregated_groups", 0),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=list(DEFAULT_SIZES),
                        help="subscriber counts to run (default: 1k 10k 100k)")
    parser.add_argument("--aggregate", type=int, default=64,
                        help="aggregation threshold (super-sub size cap)")
    parser.add_argument("--seed", type=int, default=SEED)
    # Scale runs are long, so their noise is proportionally lower.
    add_gate_arguments(parser, tolerance=0.50)
    args = parser.parse_args(argv)

    gate = GatedRun(args)
    stages = []
    for m in args.sizes:
        stage = run_one(m, args.aggregate, args.seed)
        stages.append(stage)
        gate.reading()
        print(f"m={m}: {stage['seconds']:.1f}s, "
              f"{stage['aggregated_groups']} super-subs over "
              f"{stage['aggregated_levels']} levels, "
              f"{stage['lp_calls']} LP calls, "
              f"bandwidth {stage['bandwidth']:.4g}", flush=True)

    return gate.finish({
        "benchmark": "slp_scale",
        "workload": "googlegroups",
        "algorithm": "SLP",
        "brokers": BROKERS,
        "max_out_degree": MAX_OUT_DEGREE,
        "seed": args.seed,
        "aggregate": args.aggregate,
        "total_seconds": sum(s["seconds"] for s in stages),
        "stages": stages,
    })


if __name__ == "__main__":
    sys.exit(main())
