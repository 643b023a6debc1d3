#!/usr/bin/env python
"""Matching-index bench — µs per event by block size, exact agreement.

Leaf brokers match every incoming block of events against their
assigned subscriptions, so ``match_points`` throughput bounds the
dissemination simulator, the epoch runtime and the live broker.  Which
index is cheapest depends on the block: the serve broker matches single
events, the runtime 512-event epochs and the simulator 2,048-event
chunks.  This bench pushes one fixed stream through the brute-force
scan, the grid ``best_matcher`` picks (which itself scans blocks under
its ``scan_below``) and the R-tree, cut into blocks of 1 to 4,096
events, on the Fig-7 population (GoogleGroups H/L, 1,500 subscribers,
16x16 grid).  Every block of every index is **asserted equal** to the
brute-force oracle, so a speedup that changes results fails here.

Run as a script (exit 1 on any disagreement) or under pytest::

    PYTHONPATH=src python benchmarks/bench_matching_indexes.py
    PYTHONPATH=src python -m pytest benchmarks/bench_matching_indexes.py
"""

import time

import numpy as np

from _shared import emit, emit_json, format_table, scale_banner, wl1
from repro.pubsub import (BruteForceMatcher, GridMatcher, RTreeMatcher,
                          UniformEvents, best_matcher)

#: Events pushed through each index at every block size.
TOTAL_EVENTS = 4096
BLOCK_SIZES = (1, 8, 64, 512, 1024, 2048, 4096)
HEADERS = ["block", "brute µs/event", "grid µs/event", "grid side",
           "R-tree µs/event"]


def compute():
    workload = wl1(("H", "L"))
    subscriptions = workload.subscriptions
    events = UniformEvents(workload.event_domain).sample(
        np.random.default_rng(1), TOTAL_EVENTS)
    oracle = BruteForceMatcher(subscriptions).match_points(events)
    grid = best_matcher(subscriptions, workload.event_domain)
    assert isinstance(grid, GridMatcher), type(grid).__name__
    indexes = [("brute", BruteForceMatcher(subscriptions)), ("grid", grid),
               ("rtree", RTreeMatcher(subscriptions))]
    rows = []
    for size in BLOCK_SIZES:
        row = [size]
        for name, matcher in indexes:
            started = time.perf_counter()
            blocks = [matcher.match_points(events[at:at + size])
                      for at in range(0, TOTAL_EVENTS, size)]
            wall = time.perf_counter() - started
            assert np.array_equal(np.concatenate(blocks, axis=1), oracle), \
                f"{name} disagrees with the brute-force oracle at {size}"
            row.append(round(wall / TOTAL_EVENTS * 1e6, 2))
            if name == "grid":
                row.append("scan" if size < grid.scan_below else "buckets")
        rows.append(row)
    return len(subscriptions), grid.scan_below, rows


def report(result):
    subscribers, scan_below, rows = result
    emit("\n== Matching indexes by block size: brute force vs grid vs "
         "R-tree (shared stream, exact agreement asserted) ==")
    emit(scale_banner(f"; {subscribers} subscriptions, {TOTAL_EVENTS} "
                      f"events per block size; grid scans blocks under "
                      f"{scan_below}"))
    emit(format_table(HEADERS, rows))
    emit_json("matching_indexes", HEADERS, rows, scan_below=scan_below)


def test_matching_indexes(benchmark):
    report(benchmark.pedantic(compute, rounds=1, iterations=1))


if __name__ == "__main__":
    report(compute())
