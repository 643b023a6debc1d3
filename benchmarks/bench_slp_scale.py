#!/usr/bin/env python
"""Scaling curve: aggregated multi-level SLP at m = 1k / 10k / 100k.

The paper runs SLP at 100k-1M subscribers (CPLEX, hours of wall-clock);
the reproduction reaches the paper's 100k scale through subscription
aggregation (:mod:`repro.core.slp.aggregate`).  This bench runs the
aggregated pipeline at each size, verifies every solution against the
paper invariants, and emits a ``BENCH_slp_scale.json`` payload in the
profile-payload shape (``total_seconds`` / ``calibration_seconds`` /
``stages``, one stage per size) so the existing perf-regression gate
(:func:`repro.perf.regression.check_regression`) can compare runs
against the committed baseline::

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
import json
import sys
import time

from repro import GoogleGroupsConfig, generate_google_groups, multilevel_problem
from repro.bench.harness import run_metadata
from repro.bench.tables import format_table
from repro.core.slp import AggregationConfig, slp
from repro.metrics import total_bandwidth
from repro.perf.regression import calibrate, check_regression
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
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the BENCH_slp_scale payload here")
    parser.add_argument("--check-against", default=None, metavar="BASELINE",
                        help="compare against a committed payload; exit 3 "
                             "on regression")
    parser.add_argument("--tolerance", type=float, default=0.50,
                        help="allowed normalized growth per size (scale "
                             "runs are long; noise is proportionally lower)")
    parser.add_argument("--time-budget", type=float, default=None,
                        metavar="SECONDS",
                        help="exit 4 when the whole sweep exceeds this "
                             "wall-clock budget (the CI smoke gate)")
    args = parser.parse_args(argv)

    calibration = calibrate()
    stages = []
    sweep_started = time.perf_counter()
    for m in args.sizes:
        stage = run_one(m, args.aggregate, args.seed)
        stages.append(stage)
        print(f"m={m}: {stage['seconds']:.1f}s, "
              f"{stage['aggregated_groups']} super-subs over "
              f"{stage['aggregated_levels']} levels, "
              f"{stage['lp_calls']} LP calls", flush=True)
    sweep_elapsed = time.perf_counter() - sweep_started

    payload = {
        "benchmark": "slp_scale",
        "workload": "googlegroups",
        "algorithm": "SLP",
        "brokers": BROKERS,
        "max_out_degree": MAX_OUT_DEGREE,
        "seed": args.seed,
        "aggregate": args.aggregate,
        "total_seconds": sum(s["seconds"] for s in stages),
        "calibration_seconds": calibration,
        "stages": stages,
        "metadata": run_metadata(),
    }

    print(format_table(
        ["size", "seconds", "normalized", "super-subs", "bandwidth"],
        [[s["name"], round(s["seconds"], 2),
          round(s["seconds"] / calibration, 1),
          s["aggregated_groups"], f"{s['bandwidth']:.4g}"]
         for s in stages]))

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"payload written to {args.json}")

    status = 0
    if args.check_against:
        with open(args.check_against, encoding="utf-8") as fh:
            baseline = json.load(fh)
        regression = check_regression(payload, baseline,
                                      tolerance=args.tolerance)
        print(format_table(
            ["size", "baseline(norm)", "current(norm)", "ratio", "verdict"],
            [comparison.as_row() for comparison in regression.comparisons]))
        if not regression.ok:
            print("perf regression: "
                  + ", ".join(regression.regressed_stages), file=sys.stderr)
            status = 3

    if args.time_budget is not None and sweep_elapsed > args.time_budget:
        print(f"error: sweep took {sweep_elapsed:.1f}s, over the "
              f"--time-budget gate ({args.time_budget:.1f}s)",
              file=sys.stderr)
        status = 4
    return status


if __name__ == "__main__":
    sys.exit(main())
