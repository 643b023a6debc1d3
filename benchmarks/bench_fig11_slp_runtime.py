"""Figure 11 — running time of SLP versus the number of subscribers.

The paper reports wall-clock hours for 100k-1M subscribers on a
multi-level network (CPLEX 10, 2009-era desktop); here the sweep is
laptop-scale and the point is the growth trend, which should be mildly
super-linear (coverage checks dominate; the LP size is bounded by the
coreset, not by m).

Each size runs under the stage profiler, so the JSON payload carries a
per-stage breakdown (lp_solve / filtergen / assign / ...) alongside the
total — the same shape ``python -m repro profile`` emits.
"""

import time

from _shared import (
    BROKERS_MULTI,
    MAX_OUT_DEGREE,
    SEED,
    emit,
    emit_json,
    format_series,
    scale_banner,
)
from repro import GoogleGroupsConfig, generate_google_groups, multilevel_problem, slp
from repro.perf.profiler import profiled
from repro.verify import CHECK_ASSIGNMENT, verify_solution

SIZES = [250, 500, 1000, 2000]


def compute():
    points = []
    profiles = []
    for m in SIZES:
        config = GoogleGroupsConfig(num_subscribers=m,
                                    num_brokers=BROKERS_MULTI,
                                    interest_skew="H", broad_interests="L")
        workload = generate_google_groups(SEED, config)
        problem = multilevel_problem(workload,
                                     max_out_degree=MAX_OUT_DEGREE,
                                     seed=SEED)
        with profiled() as profiler:
            started = time.perf_counter()
            solution = slp(problem, seed=1)
            elapsed = time.perf_counter() - started
        points.append((m, elapsed))
        profiles.append({
            "subscribers": m,
            "total_seconds": elapsed,
            "stages": [stage.as_dict()
                       for stage in sorted(profiler.stats().values(),
                                           key=lambda s: -s.seconds)],
        })
        assert verify_solution(problem, solution, {CHECK_ASSIGNMENT}).ok
    return points, profiles


def test_fig11_slp_runtime(benchmark):
    points, profiles = benchmark.pedantic(compute, rounds=1, iterations=1)
    emit("\n== Figure 11: running time of SLP (multi-level network) ==")
    emit(scale_banner())
    emit(format_series("SLP wall-clock seconds vs #subscribers", points))
    emit_json("fig11_slp_runtime", ["subscribers", "seconds"],
              [[m, seconds] for m, seconds in points],
              profiles=profiles)
    assert all(seconds > 0 for _m, seconds in points)
