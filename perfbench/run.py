#!/usr/bin/env python3
"""Benchmark entry point: one workload run, or every workload with ``--all``.

    python3 perfbench/run.py --workload assign --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 25

A single run prints a human summary, then as its last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  A run whose output checks fail still prints that
line (``"correct": false``) and exits 1.  ``--all`` runs every workload
untraced and traced in child processes and prints one table, including
the tracing overhead (traced against untraced end-to-end values).

Full results (provenance, check details, every metric) go to
``perfbench/out/``; a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def provenance(seed: int) -> dict:
    """What produced the numbers; pair runs, since hosts drift over minutes."""
    import numpy
    import scipy

    from repro.bench.harness import run_metadata
    from repro.perf.regression import calibrate
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": run_metadata()["git_commit"],
        "calibration_s": calibrate(),
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    spec = _load_spec()
    if workload not in [w["name"] for w in spec["workloads"]]:
        return _fail(f"unknown workload {workload!r}")
    from common import OUT
    from tracer import Tracer
    if workload.startswith("serve"):
        import serve_bench as module
    else:
        import batch as module
    runner = getattr(module, f"run_{workload}")
    prov = provenance(seed)
    tracer = Tracer(roots={"bench.op"}) if trace else None
    started = time.perf_counter()
    outcome = runner(seed, seconds, tracer)
    if tracer is not None:
        tracer.restore()

    if trace:
        wanted = spec["per_layer"]
        values = outcome.layers
    else:
        wanted = spec["end_to_end"]
        values = outcome.end_to_end()
    metrics = {}
    for entry in wanted:
        value = values.get(entry["name"], 0.0 if trace else None)
        if value is None:
            return _fail(f"{workload} did not measure {entry['name']}")
        metrics[entry["name"]] = {"value": float(value), "unit": entry["unit"]}

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}")
    record = {"workload": workload, "provenance": prov,
              "wall_s": time.perf_counter() - started,
              "failures": outcome.failures, "detail": outcome.detail,
              "end_to_end": outcome.end_to_end(), "per_layer": outcome.layers}
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, default=str)
    if tracer is not None:
        tracer.dump(stem + ".spans.jsonl")

    print(f"{workload} seed={seed} nproc={prov['nproc']} "
          f"calibration={prov['calibration_s']:.4f}s "
          f"failed_share={outcome.failed / outcome.attempted:.4f}")
    for message in outcome.failures:
        print(f"CHECK FAILED: {message}")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    correct = not outcome.failures
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, summarised in one table."""
    spec = _load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    status = 0
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        results = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout)
                status = 1
                break
            results[trace] = json.loads(lines[-1])
        if len(results) < 2:
            continue
        plain = results[0]["metrics"]
        traced = results[1]["metrics"]
        for name, metric in plain.items():
            rows.append((workload, name, metric["value"], units[name]))
        for name in ("latency_ms", "throughput_per_s"):
            base = plain[name]["value"]
            value = traced[f"trace.{name}"]["value"]
            rows.append((workload, f"tracing overhead on {name}",
                         (value - base) / base if base else 0.0, "share"))
        rows.append((workload, "unattributed share (traced)",
                     traced["trace.unattributed_share"]["value"], "share"))
    width = max((len(r[1]) for r in rows), default=10)
    for workload, name, value, unit in rows:
        print(f"{workload:13s} {name:{width}s} {value:12.6g} {unit}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="a workload of BENCHMARK.json")
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        return _fail(f"no repro sources under {ROOT}/src; run from a "
                     f"checkout of the repository")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        return _fail("give --workload or --all")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
