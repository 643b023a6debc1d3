"""The in-process workloads: ``assign``, ``simulate`` and ``runtime``.

Populations are pinned (GoogleGroups H/L, population seed 7, as in the
repository's scale and event-plane benches); ``--seed`` drives the event
streams.  The SLP rounding seed is pinned too: at m=10,000 SLP's work
varies tenfold with it (107 to 1493 LP solves across seeds 1-6), so a
per-run seed would measure the seed, not the code.  The LP solve count
is reported per assignment, so a change that alters SLP's random path
shows up as a different count instead of a silent speed-up.

Each workload repeats one operation until ``--seconds`` have passed.
``latency_ms`` is the median operation and ``throughput_per_s`` the
work of one operation over that time.  The shared host moves between
fast stretches and stretches about 1.5x slower, some lasting seconds
and some a whole run; the fastest operation jumped with whether a run
caught a fast stretch at all, where the median moves with the share of
the run spent in each.  Untraced, the instance is built
``SETUP_BUILDS`` times, once before the operations and the rest between
them, spread evenly over the run; ``setup_s`` is the median build.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import nullcontext
from typing import Any, Callable

import numpy as np

from common import Outcome, peak_rss_mb
from layers import install_event_plane, install_solver, per_layer
from tracer import NULL_TRACER, ProfilerBridge, Tracer

POPULATION_SEED = 7
SLP_SEED = 6
ASSIGN_SUBSCRIBERS = 10_000
ASSIGN_BROKERS = 64
ASSIGN_OUT_DEGREE = 8
ASSIGN_GROUP_SIZE = 64
EVENT_SUBSCRIBERS = 1500
EVENT_BROKERS = 16
EVENT_ALGORITHM = "Gr*"
#: Events per pass, sized so each plane's pass takes about 0.1 s and a
#: run holds enough passes for its fast quantile.  The check replays the
#: same stream (seed and event count) through the other plane, whose
#: result must match exactly.
PASS_EVENTS = {"simulate": 4096, "runtime": 1024}
SIM_CHUNK = 2048
EPOCH_BATCH = 512
SETUP_BUILDS = 8


def _build(build: Callable[[], Any], times: list[float]) -> Any:
    started = time.perf_counter()
    built = build()
    times.append(time.perf_counter() - started)
    return built


def _repeat(op: Callable[[int], Any], seconds: float, trace: Any,
            rebuild: Callable[[], Any] | None = None
            ) -> tuple[list[Any], list[float], tuple[float, float]]:
    """Run ``op(k)`` until ``seconds`` have passed (at least once).

    ``rebuild``, if given, runs between operations each time another
    ``1 / SETUP_BUILDS`` of the run has passed, outside the operation
    times.  Returns the results, the operation times in ms and the
    window.
    """
    results: list[Any] = []
    times_ms: list[float] = []
    builds = 1
    started = time.perf_counter()
    while not results or time.perf_counter() - started < seconds:
        if (rebuild is not None and builds < SETUP_BUILDS
                and time.perf_counter() - started
                >= seconds * builds / SETUP_BUILDS):
            rebuild()
            builds += 1
        t0 = time.perf_counter()
        with trace.span("bench.op", request=len(results)):
            results.append(op(len(results)))
        times_ms.append((time.perf_counter() - t0) * 1e3)
    return results, times_ms, (started, time.perf_counter())


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _trace_extra(tracer: Tracer, window: tuple[float, float],
                 outcome: Outcome) -> dict[str, float]:
    """Attribution and the traced run's own end-to-end values."""
    wall = window[1] - window[0]
    return {
        "trace.unattributed_share":
            max(wall - tracer.attributed_seconds(window), 0.0) / wall,
        "trace.spans": float(len(tracer.spans)),
        "trace.latency_ms": outcome.latency_ms,
        "trace.throughput_per_s": outcome.throughput_per_s,
    }


# -- assign -------------------------------------------------------------------


def _assign_problem():
    from scipy.optimize import linprog

    from repro import GoogleGroupsConfig, generate_google_groups, \
        multilevel_problem
    # One tiny LP loads the solver backend, a cost paid once per process.
    linprog([1.0], bounds=[(0, 1)], method="highs")
    config = GoogleGroupsConfig(num_subscribers=ASSIGN_SUBSCRIBERS,
                                num_brokers=ASSIGN_BROKERS,
                                interest_skew="H", broad_interests="L")
    return multilevel_problem(generate_google_groups(POPULATION_SEED, config),
                              max_out_degree=ASSIGN_OUT_DEGREE,
                              seed=POPULATION_SEED)


def check_assignments(records: list[dict[str, Any]]) -> list[str]:
    """Every solve verified, and every solve the same assignment."""
    failures = [f"solve {k}: {r['violations']}" for k, r in enumerate(records)
                if r["violations"]]
    digests = {r["digest"] for r in records}
    if len(digests) > 1:
        failures.append(f"pinned-seed solves disagree: {len(digests)} "
                        f"distinct assignments")
    return failures


def run_assign(seed: int, seconds: float, tracer: Tracer | None) -> Outcome:
    """Aggregated multilevel SLP at m=10,000, verified, until ``seconds``."""
    from repro.core.slp import AggregationConfig, slp
    from repro.metrics import total_bandwidth
    from repro.perf.profiler import profiled
    from repro.verify import guaranteed_checks, verify_solution

    setup_times: list[float] = []
    problem = _build(_assign_problem, setup_times)
    trace = tracer or NULL_TRACER
    if tracer is not None:
        install_solver(tracer)
        install_event_plane(tracer)
    aggregation = AggregationConfig(max_group_size=ASSIGN_GROUP_SIZE)

    def solve(_k: int) -> dict[str, Any]:
        with trace.span("core.slp"):
            solution = slp(problem, seed=SLP_SEED, aggregation=aggregation)
        with trace.span("verify.verify_solution"):
            report = verify_solution(problem, solution,
                                     guaranteed_checks("SLP", solution))
        return {"violations": "" if report.ok else report.summary(3),
                "digest": _digest(np.asarray(solution.assignment)),
                "bandwidth": total_bandwidth(solution.filters),
                "lp_workspace": dict(solution.info.get("lp_workspace", {}))}

    bridge = ProfilerBridge(tracer, "core.slp.") if tracer else None
    with profiled(bridge) if bridge else nullcontext():
        records, times_ms, window = _repeat(
            solve, seconds, trace,
            None if tracer else lambda: _build(_assign_problem, setup_times))
    if tracer is not None:
        tracer.restore()
    latency = float(np.median(times_ms))
    outcome = Outcome(
        setup_s=float(np.median(setup_times)), peak_rss_mb=peak_rss_mb(),
        latency_ms=latency,
        throughput_per_s=ASSIGN_SUBSCRIBERS / (latency / 1e3),
        attempted=len(records),
        failed=sum(bool(r["violations"]) for r in records),
        failures=check_assignments(records),
        detail={"solves": len(records), "solve_ms": times_ms,
                "bandwidth": records[0]["bandwidth"],
                "assignment_sha256": records[0]["digest"],
                "lp_workspace": records[0]["lp_workspace"]})
    if tracer is not None:
        workspace = records[0]["lp_workspace"]
        solves = workspace.get("solves", 0)
        outcome.layers = per_layer(
            tracer.layers(window), tracer.counts, assignments=len(records),
            kevents=0, reopts=0, extra={
                "perf.fastlp.memo_hit_ratio":
                    workspace.get("memo_hits", 0) / solves if solves else 0.0,
                **_trace_extra(tracer, window, outcome)})
    return outcome


# -- simulate / runtime -------------------------------------------------------


def _event_instance():
    from repro import GoogleGroupsConfig, generate_google_groups, \
        get_algorithm, one_level_problem
    from repro.verify import guaranteed_checks, verify_solution
    config = GoogleGroupsConfig(num_subscribers=EVENT_SUBSCRIBERS,
                                num_brokers=EVENT_BROKERS,
                                interest_skew="H", broad_interests="L")
    workload = generate_google_groups(POPULATION_SEED, config)
    problem = one_level_problem(workload)
    solution = get_algorithm(EVENT_ALGORITHM)(problem)
    report = verify_solution(problem, solution,
                             guaranteed_checks(EVENT_ALGORITHM, solution))
    if not report.ok:
        raise RuntimeError(f"{EVENT_ALGORITHM} assignment failed "
                           f"verification: {report.summary(3)}")
    return workload, problem, solution


def _simulate(instance, seed: int, events: int):
    from repro import UniformEvents, simulate_dissemination
    workload, problem, solution = instance
    return simulate_dissemination(
        problem.tree, solution.filters, solution.assignment,
        problem.subscriptions, UniformEvents(workload.event_domain),
        np.random.default_rng(seed), num_events=events,
        chunk_size=SIM_CHUNK, subscriber_points=problem.subscriber_points)


def _runtime(instance, seed: int, events: int):
    from repro import DisseminationEngine, RuntimeConfig, UniformEvents
    workload, problem, solution = instance
    engine = DisseminationEngine(
        problem.tree, solution.filters, solution.assignment,
        problem.subscriptions, config=RuntimeConfig(epoch_batch=EPOCH_BATCH),
        subscriber_points=problem.subscriber_points)
    return engine.run(UniformEvents(workload.event_domain),
                      np.random.default_rng(seed), events)


def dissemination_counts(result: Any) -> dict[str, np.ndarray]:
    return {"node_entries": np.asarray(result.node_entries),
            "deliveries": np.asarray(result.deliveries),
            "missed": np.asarray(result.missed)}


def check_dissemination(passes: list[dict[str, np.ndarray]],
                        oracle: dict[str, np.ndarray]) -> list[str]:
    """Each pass equals the other plane's result on the same stream.

    This is the runtime oracle's contract: on one seed and event count
    the epoch runtime and the chunked simulator agree on every broker
    entry, delivery and miss.  A verified assignment misses nothing.
    """
    failures = []
    for k, counts in enumerate(passes):
        for key, expected in oracle.items():
            if not np.array_equal(counts[key], expected):
                failures.append(f"pass {k}: {key} differs from the other "
                                f"plane on the same stream")
    if int(oracle["missed"].sum()):
        failures.append(f"{int(oracle['missed'].sum())} deliveries missed")
    return failures


def _run_plane(plane: str, seed: int, seconds: float,
               tracer: Tracer | None) -> Outcome:
    setup_times: list[float] = []
    instance = _build(_event_instance, setup_times)
    trace = tracer or NULL_TRACER
    if tracer is not None:
        install_solver(tracer)
        install_event_plane(tracer)
    run, oracle_run, span = ((_simulate, _runtime, "pubsub.simulate")
                             if plane == "simulate"
                             else (_runtime, _simulate, "runtime.engine"))
    events = PASS_EVENTS[plane]

    def one_pass(_k: int) -> dict[str, np.ndarray]:
        with trace.span(span):
            return dissemination_counts(run(instance, seed, events))

    passes, times_ms, window = _repeat(
        one_pass, seconds, trace,
        None if tracer else lambda: _build(_event_instance, setup_times))
    if tracer is not None:
        tracer.restore()  # the oracle run below is a check, not the workload
    oracle = dissemination_counts(oracle_run(instance, seed, events))
    delivered = int(oracle["deliveries"].sum())
    matched = delivered + int(oracle["missed"].sum())
    latency = float(np.median(times_ms))
    outcome = Outcome(
        setup_s=float(np.median(setup_times)), peak_rss_mb=peak_rss_mb(),
        latency_ms=latency, throughput_per_s=events / (latency / 1e3),
        attempted=len(passes),
        failed=sum(any(not np.array_equal(p[k], oracle[k]) for k in oracle)
                   for p in passes),
        failures=check_dissemination(passes, oracle),
        detail={"passes": len(passes), "events_per_pass": events,
                "pass_ms_median": float(np.median(times_ms)),
                "broker_entries": int(oracle["node_entries"][1:].sum()),
                "deliveries": delivered})
    if tracer is not None:
        outcome.layers = per_layer(
            tracer.layers(window), tracer.counts, assignments=0,
            kevents=len(passes) * events / 1000, reopts=0, extra={
                "delivered_per_matched": delivered / matched if matched else 0,
                **_trace_extra(tracer, window, outcome)})
    return outcome


def run_simulate(seed: int, seconds: float, tracer: Tracer | None) -> Outcome:
    """Passes of one event stream through the chunked simulator."""
    return _run_plane("simulate", seed, seconds, tracer)


def run_runtime(seed: int, seconds: float, tracer: Tracer | None) -> Outcome:
    """Passes of one event stream through the epoch-mode runtime."""
    return _run_plane("runtime", seed, seconds, tracer)
