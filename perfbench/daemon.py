#!/usr/bin/env python3
"""Launch a ``ServeDaemon`` for the serve workloads, optionally traced.

    python3 perfbench/daemon.py --trace 0

Prints ``READY <port>`` once listening.  The benchmark stops it by
writing ``STOP <t0> <t1>`` (its measurement window, in the host's
monotonic clock) to stdin, or by closing stdin; the daemon then prints
``SUMMARY <json>``: final stats, peak memory, the event-loop thread's
CPU time in the window and, when traced, the per-layer spans of that
window.

Two things are set here, outside the daemon's code:

* tracing wraps public functions before the daemon is built
  (:func:`layers.install_serve`) and bridges the SLP profiler stages;
* a set-up gate: the first re-optimization waits until the whole
  population has subscribed, so set-up runs exactly one SLP1 over the
  full population instead of a timing-dependent number of partial ones.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import threading
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from common import peak_rss_mb  # noqa: E402
from layers import install_serve  # noqa: E402
from tracer import ProfilerBridge, Tracer  # noqa: E402

#: The serve population (GoogleGroups H/L, one level).  Eight brokers keep
#: one SLP1 re-optimization over 1000 members near two seconds.
SUBSCRIBERS = 1000
BROKERS = 8
POPULATION_SEED = 7
DAEMON_SEED = 3
REOPT_THRESHOLD = 64
#: Churn checks every 50 ms, so a re-optimization starts soon after the
#: threshold is crossed instead of up to one 250 ms poll later.
REOPT_POLL_S = 0.05


def build_problem():
    from repro import GoogleGroupsConfig, generate_google_groups, \
        one_level_problem
    config = GoogleGroupsConfig(num_subscribers=SUBSCRIBERS,
                                num_brokers=BROKERS,
                                interest_skew="H", broad_interests="L")
    workload = generate_google_groups(POPULATION_SEED, config)
    return workload, one_level_problem(workload)


def _gate_first_reoptimization(daemon) -> None:
    reoptimizer = daemon.reoptimizer
    due = reoptimizer.due

    def gated() -> bool:
        if reoptimizer.runs == 0 \
                and daemon.broker.active_count < SUBSCRIBERS:
            return False
        return due()

    reoptimizer.due = gated


def _record_stats_calls(daemon, snapshots: list) -> None:
    """Note (wall, event-loop thread CPU) at every ``stats`` op.

    The op runs on the event-loop thread, so the benchmark's ``stats``
    calls at the window's edges give that thread's CPU time inside it.
    """
    stats = daemon.stats

    def recorded():
        snapshots.append((time.perf_counter(), time.thread_time()))
        return stats()

    daemon.stats = recorded


def _cpu_in(window: tuple[float, float], snapshots: list) -> float:
    inside = [cpu for wall, cpu in snapshots
              if window[0] - 0.05 <= wall <= window[1] + 0.05]
    return inside[-1] - inside[0] if len(inside) >= 2 else 0.0


async def _serve(daemon, stop: asyncio.Event) -> None:
    await daemon.start()
    print(f"READY {daemon.port}", flush=True)
    try:
        await stop.wait()
    finally:
        await daemon.stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, metavar="PATH",
                        help="write the traced run's spans here")
    parser.add_argument("--cpu", type=int, default=None,
                        help="run on this CPU only")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    from repro.perf.profiler import profiled
    from repro.serve import ServeConfig, ServeDaemon

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        install_serve(tracer)
    _workload, problem = build_problem()
    daemon = ServeDaemon(problem, ServeConfig(
        port=0, seed=DAEMON_SEED, reopt_threshold=REOPT_THRESHOLD,
        reopt_poll_interval=REOPT_POLL_S))
    _gate_first_reoptimization(daemon)
    snapshots: list[tuple[float, float]] = []
    _record_stats_calls(daemon, snapshots)

    window = [0.0, 0.0]
    loop_thread = threading.get_ident()
    loop = asyncio.new_event_loop()
    stop = asyncio.Event()

    def wait_for_stop() -> None:
        line = sys.stdin.readline().split()
        if len(line) == 3 and line[0] == "STOP":
            window[:] = [float(line[1]), float(line[2])]
        loop.call_soon_threadsafe(stop.set)

    threading.Thread(target=wait_for_stop, daemon=True).start()
    bridge = ProfilerBridge(tracer, "core.slp.") if tracer else None
    with profiled(bridge) if bridge else nullcontext():
        try:
            loop.run_until_complete(_serve(daemon, stop))
        finally:
            loop.close()

    span = (window[0], window[1])
    summary = {
        "stats": daemon.stats(),
        "peak_rss_mb": peak_rss_mb(),
        "cpu_s": _cpu_in(span, snapshots),
        "layers": tracer.layers(span) if tracer else {},
        "counts": dict(tracer.counts) if tracer else {},
        "attributed_s": (tracer.attributed_seconds(span, loop_thread)
                         if tracer else 0.0),
        "spans": len(tracer.spans) if tracer else 0,
    }
    if tracer is not None and args.spans:
        tracer.dump(args.spans)
    print("SUMMARY " + json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
