#!/usr/bin/env python
"""Throughput curve of the vectorized event plane (Fig-7 workload).

Publishes the same seeded event stream through every event path and
measures events/sec: the batch simulator at chunk sizes 1 (scalar
stepping with the brute-force matcher) through 2048 (vectorized with
the heuristic index), and the discrete-event runtime with scalar heap
stepping vs epoch-mode matrix steps.  Before timing counts, the bench
*asserts* sha256 bit-identity of every batched result against its
scalar twin — a fast path that changes answers is a bug, not a win.

Emits a ``BENCH_event_plane.json`` payload in the profile-payload shape
(``total_seconds`` / ``calibration_seconds`` / ``stages``) so the
perf-regression gate (:func:`repro.perf.regression.check_regression`)
can compare runs against the committed baseline::

    PYTHONPATH=src python benchmarks/bench_event_plane.py --events 2000 \
        --json benchmarks/baselines/BENCH_event_plane.json    # record
    PYTHONPATH=src python benchmarks/bench_event_plane.py --events 2000 \
        --check-against benchmarks/baselines/BENCH_event_plane.json

Stage seconds grow with the event count, so ``--check-against`` refuses
a baseline recorded at another ``--events`` (a usage error, exit 2).

Exit codes: 2 = bit-identity violated, 3 = perf regression vs the
baseline, 4 = over ``--time-budget``, 5 = speedup under
``--min-speedup``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

import numpy as np

from repro import (
    BruteForceMatcher,
    DisseminationEngine,
    GoogleGroupsConfig,
    RuntimeConfig,
    UniformEvents,
    generate_google_groups,
    get_algorithm,
    one_level_problem,
    simulate_dissemination,
)
from repro.bench.harness import run_metadata
from repro.bench.tables import format_table
from repro.perf.regression import calibrate, check_regression

SUBSCRIBERS = 1500
BROKERS = 16
SEED = 7
ALGORITHM = "Gr*"
DEFAULT_EVENTS = 6000
CHUNK_SIZES = (64, 512, 2048)
EPOCH_BATCH = 512


def sha(payload: dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def build_instance():
    config = GoogleGroupsConfig(num_subscribers=SUBSCRIBERS,
                                num_brokers=BROKERS,
                                interest_skew="H", broad_interests="L")
    workload = generate_google_groups(SEED, config)
    problem = one_level_problem(workload)
    solution = get_algorithm(ALGORITHM)(problem)
    return workload, problem, solution


def run_simulation(problem, solution, distribution, events, chunk, matcher):
    started = time.perf_counter()
    result = simulate_dissemination(
        problem.tree, solution.filters, solution.assignment,
        problem.subscriptions, distribution, np.random.default_rng(SEED),
        num_events=events, chunk_size=chunk,
        subscriber_points=problem.subscriber_points, matcher=matcher)
    return time.perf_counter() - started, result


def run_runtime(problem, solution, distribution, events, epoch_batch):
    engine = DisseminationEngine(
        problem.tree, solution.filters, solution.assignment,
        problem.subscriptions,
        config=RuntimeConfig(epoch_batch=epoch_batch),
        subscriber_points=problem.subscriber_points)
    started = time.perf_counter()
    result = engine.run(distribution, np.random.default_rng(SEED), events)
    return time.perf_counter() - started, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--events", type=int, default=DEFAULT_EVENTS)
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the BENCH_event_plane payload here")
    parser.add_argument("--check-against", default=None, metavar="BASELINE",
                        help="compare against a committed payload; exit 3 "
                             "on regression")
    parser.add_argument("--tolerance", type=float, default=0.50,
                        help="allowed normalized growth per stage")
    parser.add_argument("--min-speedup", type=float, default=4.0,
                        help="required scalar/batched throughput ratio for "
                             "both planes (exit 5 when missed)")
    parser.add_argument("--time-budget", type=float, default=None,
                        metavar="SECONDS",
                        help="exit 4 when the sweep exceeds this wall-clock")
    args = parser.parse_args(argv)
    if args.check_against:
        with open(args.check_against, encoding="utf-8") as fh:
            baseline = json.load(fh)
        if baseline.get("events") != args.events:
            parser.error(f"--events {args.events} does not match the "
                         f"baseline's {baseline.get('events')} events")

    calibration = calibrate()
    workload, problem, solution = build_instance()
    distribution = UniformEvents(workload.event_domain)
    events = args.events

    stages = []
    sweep_started = time.perf_counter()

    def record(name, seconds, extra=None):
        stage = {"name": name, "calls": 1, "seconds": seconds,
                 "events_per_sec": events / seconds if seconds else 0.0}
        stage.update(extra or {})
        stages.append(stage)
        print(f"{name}: {seconds:.2f}s "
              f"({stage['events_per_sec']:,.0f} events/s)", flush=True)
        return stage

    # -- simulator plane ----------------------------------------------------
    brute = BruteForceMatcher(problem.subscriptions)
    scalar_s, scalar_result = run_simulation(
        problem, solution, distribution, events, 1, brute)
    scalar_sha = sha(scalar_result.to_dict())
    record("sim-scalar", scalar_s, {"chunk_size": 1, "matcher": "brute"})

    sim_best = None
    for chunk in CHUNK_SIZES:
        seconds, result = run_simulation(
            problem, solution, distribution, events, chunk, None)
        if sha(result.to_dict()) != scalar_sha:
            print(f"error: sim-chunk-{chunk} is not bit-identical to the "
                  f"scalar simulation", file=sys.stderr)
            return 2
        record(f"sim-chunk-{chunk}", seconds,
               {"chunk_size": chunk, "matcher": "best"})
        sim_best = min(sim_best or seconds, seconds)
    sim_speedup = scalar_s / sim_best

    # -- runtime plane ------------------------------------------------------
    rt_scalar_s, rt_scalar = run_runtime(
        problem, solution, distribution, events, 0)
    record("runtime-scalar", rt_scalar_s, {"epoch_batch": 0})
    rt_epoch_s, rt_epoch = run_runtime(
        problem, solution, distribution, events, EPOCH_BATCH)
    if sha(rt_epoch.to_dict()) != sha(rt_scalar.to_dict()):
        print("error: epoch-mode runtime is not bit-identical to scalar "
              "heap stepping", file=sys.stderr)
        return 2
    record(f"runtime-epoch-{EPOCH_BATCH}", rt_epoch_s,
           {"epoch_batch": EPOCH_BATCH})
    runtime_speedup = rt_scalar_s / rt_epoch_s
    sweep_elapsed = time.perf_counter() - sweep_started

    payload = {
        "benchmark": "event_plane",
        "workload": "googlegroups",
        "algorithm": ALGORITHM,
        "subscribers": SUBSCRIBERS,
        "brokers": BROKERS,
        "seed": SEED,
        "events": events,
        "sim_speedup": sim_speedup,
        "runtime_speedup": runtime_speedup,
        "bit_identical": True,
        "total_seconds": sum(s["seconds"] for s in stages),
        "calibration_seconds": calibration,
        "stages": stages,
        "metadata": run_metadata(),
    }

    print(format_table(
        ["stage", "seconds", "normalized", "events/s"],
        [[s["name"], round(s["seconds"], 3),
          round(s["seconds"] / calibration, 1),
          f"{s['events_per_sec']:,.0f}"] for s in stages]))
    print(f"simulator speedup: {sim_speedup:.1f}x, "
          f"runtime speedup: {runtime_speedup:.1f}x "
          f"(all batched paths sha256-identical to scalar)")

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"payload written to {args.json}")

    status = 0
    if args.check_against:
        regression = check_regression(payload, baseline,
                                      tolerance=args.tolerance)
        print(format_table(
            ["stage", "baseline(norm)", "current(norm)", "ratio", "verdict"],
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

    if min(sim_speedup, runtime_speedup) < args.min_speedup:
        print(f"error: speedup below the --min-speedup gate "
              f"({args.min_speedup:.1f}x): simulator {sim_speedup:.1f}x, "
              f"runtime {runtime_speedup:.1f}x", file=sys.stderr)
        status = 5
    return status


if __name__ == "__main__":
    sys.exit(main())
