"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------

``run``
    Generate a workload, run one or more algorithms, print the paper's
    headline metrics per algorithm (and the LP fractional bound when an
    SLP variant runs).

``simulate``
    Solve an instance, then publish sampled events through the broker
    tree and report empirical traffic versus the analytic bandwidth.

``dynamic``
    Play a churn trace with online greedy arrivals and periodic SLP1
    re-optimization; print the bandwidth trajectory.

``runtime``
    Solve an instance, then run the discrete-event dissemination runtime
    over it: queued brokers, optional crash/recover fault injection with
    greedy failover, optional mid-run churn, and telemetry (exportable
    as JSON with ``--telemetry-json``).

``verify``
    Solve an instance with each requested algorithm and check the
    result against the paper's invariants (nesting, latency budgets,
    load balance, filter complexity) plus the differential oracles
    (matchers, volume estimators, runtime vs batch simulator).  Exits
    2 on any violation; ``--corrupt`` deliberately breaks the solution
    first to prove the checker fires.

``profile``
    Solve an instance under the stage profiler and print/export the
    per-stage wall-clock breakdown; with ``--check-against BASELINE``
    compare the calibrated timings against a committed profile payload
    and exit 3 when a stage regressed beyond the tolerance (the CI
    perf-smoke gate).  Timings are normalized by the median of
    calibration readings taken before the first repeat and after each.

``serve``
    Run the live asyncio pub/sub broker daemon: a JSON-over-TCP gateway
    (``subscribe`` / ``unsubscribe`` / ``publish`` / ``stats``) in front
    of the online greedy assigner, with a background churn-triggered
    re-optimizer whose every re-assignment is invariant-verified before
    being swapped in.

``loadgen``
    Drive a running ``serve`` daemon with N concurrent subscriber
    connections plus publishers, and report end-to-end delivery-latency
    percentiles and delivery rate (optionally as a ``BENCH_serve_*``
    JSON payload).

``analyze``
    Run the determinism / async-safety / contract static analysis over
    the source tree (see :mod:`repro.analyze`).  Prints the violation
    table and exits 2 on any violation; with ``--check-against
    analyze_baseline.json`` enforces the ratchet instead (counts may
    only decrease), and ``--write-baseline`` freezes the current counts.

``algorithms``
    List the registered algorithm names.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from collections.abc import Sequence

import numpy as np

from .analyze import (
    check_ratchet,
    default_rules,
    load_baseline,
    run_analysis,
    write_baseline,
)
from .bench.tables import format_table
from .core.registry import algorithm_names, get_algorithm
from .core.slp import AggregationConfig
from .dynamic import DynamicPubSub, generate_churn_trace
from .metrics import evaluate_solution, runtime_report_rows, total_bandwidth
from .perf.profiler import profiled
from .perf.regression import GatedRun, add_gate_arguments
from .pubsub import UniformEvents, simulate_dissemination
from .runtime import (
    BrokerOutage,
    DisseminationEngine,
    FaultPlan,
    ReplayConfig,
    RuntimeConfig,
    apply_fault_plan,
    replay_churn,
)
from .serve import (
    LoadGenConfig,
    ServeConfig,
    ServeDaemon,
    run_loadgen,
    write_loadgen_json,
)
from .verify import (
    ALL_CHECKS,
    corrupt_latency,
    corrupt_nesting,
    guaranteed_checks,
    solution_oracles,
    verify_solution,
)
from .workloads import (
    GoogleGroupsConfig,
    GridConfig,
    RssConfig,
    generate_google_groups,
    generate_grid,
    generate_rss,
    multilevel_problem,
    one_level_problem,
)

__all__ = ["main"]


def _build_workload(args: argparse.Namespace):
    if args.workload == "googlegroups":
        config = GoogleGroupsConfig(
            num_subscribers=args.subscribers, num_brokers=args.brokers,
            interest_skew=args.interest_skew,
            broad_interests=args.broad_interests)
        return generate_google_groups(args.seed, config)
    if args.workload == "rss":
        config = RssConfig(num_subscribers=args.subscribers,
                           num_brokers=args.brokers)
        return generate_rss(args.seed, config)
    config = GridConfig(num_subscribers=args.subscribers,
                        num_brokers=args.brokers)
    return generate_grid(args.seed, config)


def _build_problem(args: argparse.Namespace):
    workload = _build_workload(args)
    overrides = {"alpha": args.alpha, "max_delay": args.max_delay}
    if args.beta is not None:
        overrides["beta"] = args.beta
    if args.beta_max is not None:
        overrides["beta_max"] = args.beta_max
    if args.multilevel:
        return workload, multilevel_problem(
            workload, max_out_degree=args.max_out_degree,
            seed=args.seed, **overrides)
    return workload, one_level_problem(workload, **overrides)


def _add_instance_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", choices=["googlegroups", "rss", "grid"],
                        default="googlegroups")
    parser.add_argument("--subscribers", type=int, default=1000)
    parser.add_argument("--brokers", type=int, default=12)
    parser.add_argument("--interest-skew", choices=["L", "H"], default="H")
    parser.add_argument("--broad-interests", choices=["L", "H"], default="L")
    parser.add_argument("--alpha", type=int, default=3)
    parser.add_argument("--max-delay", type=float, default=0.3)
    parser.add_argument("--beta", type=float, default=None,
                        help="desired lbf (default: the workload set's)")
    parser.add_argument("--beta-max", type=float, default=None)
    parser.add_argument("--multilevel", action="store_true")
    parser.add_argument("--max-out-degree", type=int, default=8)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--aggregate", type=int, default=None, metavar="N",
                        help="SLP variants: aggregate subscriptions into "
                             "super-subscriptions of at most N members "
                             "before the LP (0/1 disables; the scaling "
                             "mode for large m)")


def _algorithm_kwargs(args: argparse.Namespace, name: str) -> dict:
    """Keyword arguments for one registered algorithm.

    Only the SLP variants are seeded/configurable; ``--aggregate`` is
    silently ignored for the greedy baselines, which have no LP to
    aggregate.
    """
    if name not in ("SLP1", "SLP"):
        return {}
    kwargs: dict = {"seed": args.seed}
    aggregate = getattr(args, "aggregate", None)
    if aggregate is not None:
        kwargs["aggregation"] = AggregationConfig(max_group_size=aggregate)
    return kwargs


def _command_run(args: argparse.Namespace) -> int:
    _workload, problem = _build_problem(args)
    print(problem)
    rows = []
    for name in args.algorithms:
        fn = get_algorithm(name)
        solution = fn(problem, **_algorithm_kwargs(args, name))
        report = evaluate_solution(name, solution)
        rows.append([name, report.bandwidth,
                     solution.fractional_bandwidth, report.rms_delay,
                     report.lbf, report.feasible])
    print(format_table(
        ["algorithm", "bandwidth", "fractional", "rms_delay", "lbf",
         "feasible"], rows))
    return 0


def _command_simulate(args: argparse.Namespace) -> int:
    workload, problem = _build_problem(args)
    fn = get_algorithm(args.algorithm)
    solution = fn(problem, **_algorithm_kwargs(args, args.algorithm))

    events = UniformEvents(workload.event_domain)
    rng = np.random.default_rng(args.seed)
    try:
        result = simulate_dissemination(
            problem.tree, solution.filters, solution.assignment,
            problem.subscriptions, events, rng, num_events=args.events,
            chunk_size=args.chunk_size,
            subscriber_points=problem.subscriber_points)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    analytic = total_bandwidth(solution.filters)
    empirical = result.empirical_bandwidth(workload.event_domain.volume())
    print(format_table(
        ["metric", "value"],
        [["events published", result.num_events],
         ["broker entries", result.total_broker_entries],
         ["deliveries", int(result.deliveries.sum())],
         ["missed deliveries", int(result.missed.sum())],
         ["analytic Q(T)", analytic],
         ["empirical Q(T)", empirical],
         ["empirical / analytic", empirical / analytic if analytic else 0]]))
    if args.result_json:
        result.dump(args.result_json,
                    params={"algorithm": args.algorithm, "seed": args.seed,
                            "chunk_size": args.chunk_size})
        print(f"result written to {args.result_json}")
    return 1 if result.missed.sum() else 0


def _command_dynamic(args: argparse.Namespace) -> int:
    _workload, problem = _build_problem(args)
    trace = generate_churn_trace(
        problem.num_subscribers, args.horizon,
        np.random.default_rng(args.seed),
        initial_active_fraction=args.initial_fraction,
        arrival_rate=args.churn_rate, departure_rate=args.churn_rate)
    system = DynamicPubSub(problem, seed=args.seed)
    for j in np.flatnonzero(trace.initially_active):
        system.arrive(int(j))

    rows = []

    def record(tag: str) -> None:
        snap = system.snapshot()
        rows.append([snap.step, tag, snap.active_count, snap.bandwidth,
                     snap.lbf, snap.total_migrations])

    record("initial")
    for step in trace.steps:
        system.apply(step)
        if (step.step + 1) % args.reopt_every == 0:
            record("drifted")
            system.reoptimize("SLP1", seed=args.seed)
            record("re-optimized")
    record("final")
    print(format_table(
        ["step", "phase", "active", "bandwidth", "lbf", "migrations"],
        rows))
    return 0


def _positive_int(text: str) -> int:
    """An argparse type for integers of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _parse_outage(spec: str) -> BrokerOutage:
    """Parse ``NODE:START[:END]`` into a :class:`BrokerOutage`."""
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise argparse.ArgumentTypeError(
            f"bad --crash spec {spec!r}; expected NODE:START[:END]")
    try:
        node = int(parts[0])
        start = float(parts[1])
        end = float(parts[2]) if len(parts) == 3 else None
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"bad --crash spec {spec!r}: {exc}") from None
    try:
        return BrokerOutage(node=node, start=start, end=end)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _command_runtime(args: argparse.Namespace) -> int:
    if args.max_events is not None and args.events > args.max_events:
        print(f"error: --events {args.events} exceeds the --max-events "
              f"guard ({args.max_events}); refusing an unbounded replay",
              file=sys.stderr)
        return 2

    workload, problem = _build_problem(args)
    fn = get_algorithm(args.algorithm)
    solution = fn(problem, **_algorithm_kwargs(args, args.algorithm))

    events = UniformEvents(workload.event_domain)
    rng = np.random.default_rng(args.seed)
    try:
        config = RuntimeConfig(
            publish_interval=args.publish_interval,
            service_time=args.service_time,
            queue_capacity=args.queue_capacity,
            link_loss=args.link_loss,
            fault_seed=args.seed,
            trace_events=args.trace_events,
            max_duration=args.duration)
        plan = (FaultPlan(outages=tuple(args.crash),
                          failover_delay=args.failover_delay)
                if args.crash or args.link_loss else None)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failover = not args.no_failover
    try:
        if args.churn_horizon > 0:
            trace = generate_churn_trace(
                problem.num_subscribers, args.churn_horizon,
                np.random.default_rng(args.seed),
                initial_active_fraction=args.initial_fraction,
                arrival_rate=args.churn_rate, departure_rate=args.churn_rate)
            result, _system = replay_churn(
                problem, trace, events, rng, args.events,
                engine_config=config,
                replay_config=ReplayConfig(reopt_every=args.reopt_every,
                                           reopt_algorithm=args.algorithm,
                                           reopt_seed=args.seed),
                fault_plan=plan, failover=failover, manager_seed=args.seed)
        else:
            engine = DisseminationEngine(
                problem.tree, solution.filters, solution.assignment,
                problem.subscriptions, config=config,
                subscriber_points=problem.subscriber_points)
            if plan is not None:
                apply_fault_plan(engine, plan,
                                 problem if failover else None,
                                 failover=failover)
            result = engine.run(events, rng, args.events)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rows = runtime_report_rows(result,
                               domain_measure=workload.event_domain.volume())
    print(format_table(["metric", "value"], rows))
    if args.telemetry_json:
        result.telemetry.dump(args.telemetry_json)
        print(f"telemetry written to {args.telemetry_json}")
    if args.result_json:
        result.dump(args.result_json,
                    params={"algorithm": args.algorithm, "seed": args.seed})
        print(f"result written to {args.result_json}")
    if result.aborted:
        print(f"error: run aborted at simulated time {result.duration:.6g} "
              f"— the --duration guard ({args.duration:.6g}) fired before "
              f"the replay drained (malformed or runaway churn trace?)",
              file=sys.stderr)
        return 2
    fault_free = plan is None and args.churn_horizon == 0
    return 1 if (fault_free and result.total_missed) else 0


def _command_verify(args: argparse.Namespace) -> int:
    workload, problem = _build_problem(args)
    print(problem)
    failed = False
    rows = []
    for name in args.algorithms:
        fn = get_algorithm(name)
        solution = fn(problem, **_algorithm_kwargs(args, name))

        if args.corrupt:
            try:
                corrupter = (corrupt_nesting if args.corrupt == "nesting"
                             else corrupt_latency)
                solution = corrupter(problem, solution)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        # A corrupted solution must be checked against everything, or the
        # planted violation could hide behind a relaxed guarantee.
        checks = (ALL_CHECKS if args.checks == "all" or args.corrupt
                  else guaranteed_checks(name, solution))
        report = verify_solution(problem, solution, checks)
        failed = failed or not report.ok
        counts = report.by_check()
        rows.append([name, "+".join(sorted(checks)),
                     sum(counts.values()), round(report.lbf, 3),
                     "OK" if report.ok else "FAILED"])
        if not report.ok:
            print(f"--- {name}\n{report.summary()}", file=sys.stderr)

        if not args.skip_oracles:
            for oracle in solution_oracles(
                    problem, solution, workload.event_domain,
                    seed=args.seed, num_events=args.events,
                    mc_samples=args.mc_samples):
                rows.append([name, f"oracle:{oracle.name}", "-", "-",
                             "OK" if oracle.agree else "FAILED"])
                if not oracle.agree:
                    failed = True
                    print(f"--- {name}: {oracle}", file=sys.stderr)

    print(format_table(["algorithm", "checks", "violations", "lbf",
                        "verdict"], rows))
    return 2 if failed else 0


def _command_profile(args: argparse.Namespace) -> int:
    _workload, problem = _build_problem(args)
    fn = get_algorithm(args.algorithm)
    kwargs = _algorithm_kwargs(args, args.algorithm)

    gate = GatedRun(args)
    best_elapsed = None
    best_profiler = None
    best_solution = None
    for _ in range(max(args.repeats, 1)):
        with profiled() as profiler:
            started = time.perf_counter()
            solution = fn(problem, **kwargs)
            elapsed = time.perf_counter() - started
        gate.reading()
        if best_elapsed is None or elapsed < best_elapsed:
            best_elapsed, best_profiler = elapsed, profiler
            best_solution = solution

    report = evaluate_solution(args.algorithm, best_solution,
                               runtime_seconds=best_elapsed)
    stages = sorted(best_profiler.stats().values(),
                    key=lambda s: -s.seconds)
    payload = {
        "benchmark": "profile",
        "workload": args.workload,
        "algorithm": args.algorithm,
        "subscribers": args.subscribers,
        "brokers": args.brokers,
        "multilevel": bool(args.multilevel),
        "seed": args.seed,
        "aggregate": args.aggregate,
        "repeats": args.repeats,
        "total_seconds": best_elapsed,
        "stages": [stage.as_dict() for stage in stages],
        "metrics": {
            "bandwidth": report.bandwidth,
            "rms_delay": report.rms_delay,
            "lbf": report.lbf,
            "feasible": report.feasible,
        },
    }

    accounted = sum(stage.seconds for stage in stages)
    rows = [[stage.name, stage.calls, round(stage.seconds, 4),
             round(stage.seconds / best_elapsed, 3)] for stage in stages]
    rows.append(["(unattributed)", "-",
                 round(max(best_elapsed - accounted, 0.0), 4),
                 round(max(best_elapsed - accounted, 0.0) / best_elapsed, 3)])
    rows.append(["total", "-", round(best_elapsed, 4), 1.0])
    print(f"{args.algorithm} on {args.workload} "
          f"(m={args.subscribers}, |B|={args.brokers}, "
          f"best of {args.repeats})")
    print(format_table(["stage", "calls", "seconds", "share"], rows))
    return gate.finish(payload)


def _command_serve(args: argparse.Namespace) -> int:
    _workload, problem = _build_problem(args)
    config = ServeConfig(
        host=args.host, port=args.port,
        queue_capacity=args.queue_capacity,
        seed=args.seed,
        reopt_threshold=args.reopt_threshold,
        reopt_poll_interval=args.reopt_poll,
        reopt_algorithm=args.reopt_algorithm)
    daemon = ServeDaemon(problem, config)

    async def _serve() -> None:
        await daemon.start()
        print(f"serving {problem} on {config.host}:{daemon.port} "
              f"(reopt threshold {config.reopt_threshold}, "
              f"queue capacity {config.queue_capacity})", flush=True)
        await daemon.run(run_for=args.run_for)

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    stats = daemon.stats()
    print(format_table(["metric", "value"],
                       [[k, v] for k, v in sorted(stats.items())]))
    return 0


def _command_loadgen(args: argparse.Namespace) -> int:
    if args.active > args.subscribers:
        print(f"error: --active {args.active} exceeds the population "
              f"(--subscribers {args.subscribers})", file=sys.stderr)
        return 2
    workload, _problem = _build_problem(args)
    try:
        config = LoadGenConfig(
            host=args.host, port=args.port,
            subscribers=args.active,
            publishers=args.publishers,
            events=args.events,
            rate=args.rate,
            duration=args.duration,
            churn_interval=args.churn_interval,
            seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    distribution = UniformEvents(workload.event_domain)
    try:
        report = asyncio.run(run_loadgen(distribution, config))
    except (ConnectionRefusedError, OSError) as exc:
        print(f"error: cannot reach the daemon at "
              f"{config.host}:{config.port}: {exc}", file=sys.stderr)
        return 2

    print(format_table(["metric", "value"], [
        ["subscriber connections", report.subscribers],
        ["events published", report.events_published],
        ["events received (wire)", report.events_received],
        ["delivery rate", report.delivery_rate],
        ["dropped (backpressure)", report.dropped_backpressure],
        ["latency p50 (s)", report.latency_p50],
        ["latency p95 (s)", report.latency_p95],
        ["latency p99 (s)", report.latency_p99],
        ["latency max (s)", report.latency_max],
        ["re-optimizations", report.reoptimizations],
        ["reopt rejected", report.reopt_rejected],
        ["reopt migrations", report.reopt_migrations],
        ["churn flaps", report.churn_flaps],
        ["achieved rate (ev/s)", report.achieved_rate],
        ["wall seconds", report.wall_seconds]]))
    if args.json:
        path = write_loadgen_json(args.json, report, config)
        print(f"payload written to {path}")

    if report.delivery_rate < args.min_delivery_rate:
        print(f"error: delivery rate {report.delivery_rate:.4f} below the "
              f"--min-delivery-rate gate ({args.min_delivery_rate})",
              file=sys.stderr)
        return 1
    if report.reoptimizations < args.min_reopts:
        print(f"error: {report.reoptimizations} re-optimizations, below "
              f"the --min-reopts gate ({args.min_reopts})", file=sys.stderr)
        return 1
    return 0


def _command_analyze(args: argparse.Namespace) -> int:
    try:
        rules = default_rules(args.rules)
        report = run_analysis(args.root, rules)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    counts = report.by_rule()
    catalog_rows = [[rule.rule_id, rule.title,
                     ("all" if rule.packages is None
                      else "+".join(sorted(rule.packages))),
                     counts.get(rule.rule_id, 0)] for rule in rules]
    print(f"analyzed {report.files_scanned} files under {report.root}")
    print(format_table(["rule", "title", "scope", "violations"],
                       catalog_rows))
    for violation in sorted(report.violations,
                            key=lambda v: (v.path, v.line, v.rule)):
        print(violation, file=sys.stderr)
    for error in report.parse_errors:
        print(f"parse error: {error}", file=sys.stderr)
    if report.allowlisted:
        print(f"{len(report.allowlisted)} finding(s) waived by inline "
              f"'analyze: allow' pragmas")

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report.as_payload(rules), fh, indent=2)
            fh.write("\n")
        print(f"report written to {args.json}")

    if args.write_baseline:
        payload = write_baseline(args.write_baseline, report)
        print(f"baseline with {payload['total']} violation(s) written to "
              f"{args.write_baseline}")
        return 0

    if report.parse_errors:
        return 2
    if args.check_against:
        try:
            baseline = load_baseline(args.check_against)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"error: cannot load baseline: {exc}", file=sys.stderr)
            return 2
        ratchet = check_ratchet(report, baseline)
        print(ratchet.summary())
        return 0 if ratchet.ok else 2
    return 2 if report.violations else 0


def _command_algorithms(_args: argparse.Namespace) -> int:
    for name in algorithm_names():
        print(name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Subscriber assignment for wide-area content-based "
                    "publish/subscribe (ICDE 2011 reproduction)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser("run", help="run algorithms on a workload")
    _add_instance_arguments(run)
    run.add_argument("--algorithms", nargs="+", default=["SLP1", "Gr*"],
                     choices=algorithm_names())
    run.set_defaults(handler=_command_run)

    simulate = subparsers.add_parser(
        "simulate", help="solve, then publish events through the tree")
    _add_instance_arguments(simulate)
    simulate.add_argument("--algorithm", default="Gr*",
                          choices=algorithm_names())
    simulate.add_argument("--events", type=int, default=4000)
    simulate.add_argument("--chunk-size", type=int, default=512,
                          help="events per vectorized chunk (1 = scalar "
                               "stepping; results are identical)")
    simulate.add_argument("--result-json", default=None, metavar="PATH",
                          help="export the simulation result as JSON")
    simulate.set_defaults(handler=_command_simulate)

    dynamic = subparsers.add_parser(
        "dynamic", help="churn + periodic re-optimization")
    _add_instance_arguments(dynamic)
    dynamic.add_argument("--horizon", type=int, default=30)
    dynamic.add_argument("--churn-rate", type=float, default=10.0)
    dynamic.add_argument("--initial-fraction", type=float, default=0.4)
    dynamic.add_argument("--reopt-every", type=int, default=15)
    dynamic.set_defaults(handler=_command_dynamic)

    runtime = subparsers.add_parser(
        "runtime",
        help="discrete-event dissemination runtime with fault injection")
    _add_instance_arguments(runtime)
    runtime.add_argument("--algorithm", default="Gr*",
                         choices=algorithm_names())
    runtime.add_argument("--events", type=int, default=2000)
    runtime.add_argument("--publish-interval", type=float, default=1.0)
    runtime.add_argument("--service-time", type=float, default=0.0)
    runtime.add_argument("--queue-capacity", type=int, default=None)
    runtime.add_argument("--link-loss", type=float, default=0.0,
                         help="per-hop message loss probability")
    runtime.add_argument("--crash", type=_parse_outage, action="append",
                         default=[], metavar="NODE:START[:END]",
                         help="crash broker NODE at START, recover at END "
                              "(repeatable)")
    runtime.add_argument("--failover-delay", type=float, default=0.0,
                         help="failure-detection lag before re-assignment")
    runtime.add_argument("--no-failover", action="store_true",
                         help="leave orphaned subscribers unrepaired")
    runtime.add_argument("--churn-horizon", type=int, default=0,
                         help="churn steps to replay mid-run (0 = frozen)")
    runtime.add_argument("--churn-rate", type=float, default=10.0)
    runtime.add_argument("--initial-fraction", type=float, default=0.5)
    runtime.add_argument("--reopt-every", type=int, default=0)
    runtime.add_argument("--trace-events", type=int, default=0,
                         help="record trace spans for the first N events")
    runtime.add_argument("--telemetry-json", default=None, metavar="PATH",
                         help="export the run's telemetry as JSON")
    runtime.add_argument("--result-json", default=None, metavar="PATH",
                         help="export the runtime result as JSON")
    runtime.add_argument("--duration", type=float, default=None,
                         help="abort (exit 2) past this simulated time — "
                              "guards replays against runaway churn traces")
    runtime.add_argument("--max-events", type=int, default=None,
                         help="refuse (exit 2) when --events exceeds this")
    runtime.set_defaults(handler=_command_runtime)

    verify = subparsers.add_parser(
        "verify",
        help="check solutions against the paper invariants + oracles")
    _add_instance_arguments(verify)
    verify.add_argument("--algorithms", nargs="+", default=["SLP1", "Gr*"],
                        choices=algorithm_names())
    verify.add_argument("--checks", choices=["guaranteed", "all"],
                        default="guaranteed",
                        help="hold each algorithm to its own contract "
                             "(default) or to every invariant")
    verify.add_argument("--corrupt", choices=["nesting", "latency"],
                        default=None,
                        help="deliberately break the solution first; the "
                             "run must then exit 2")
    verify.add_argument("--skip-oracles", action="store_true",
                        help="run only the invariant checks")
    verify.add_argument("--events", type=int, default=400,
                        help="events for the runtime differential oracle")
    verify.add_argument("--mc-samples", type=int, default=200_000,
                        help="samples for the volume differential oracle")
    verify.set_defaults(handler=_command_verify)

    profile = subparsers.add_parser(
        "profile",
        help="per-stage wall-clock breakdown (+ perf-regression gate)")
    _add_instance_arguments(profile)
    profile.add_argument("--algorithm", default="SLP1",
                         choices=algorithm_names())
    profile.add_argument("--repeats", type=int, default=3,
                         help="profiled runs; the fastest is reported")
    add_gate_arguments(profile, tolerance=0.30, time_budget=False)
    profile.set_defaults(handler=_command_profile)

    serve = subparsers.add_parser(
        "serve", help="run the live asyncio pub/sub broker daemon")
    _add_instance_arguments(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7411,
                       help="TCP port (0 = ephemeral, printed on startup)")
    serve.add_argument("--queue-capacity", type=_positive_int, default=1024,
                       help="per-subscriber delivery queue depth")
    serve.add_argument("--reopt-threshold", type=int, default=64,
                       help="churn events triggering a re-optimization")
    serve.add_argument("--reopt-poll", type=float, default=0.25,
                       help="seconds between churn checks")
    serve.add_argument("--reopt-algorithm", default="SLP1",
                       choices=algorithm_names())
    serve.add_argument("--run-for", type=float, default=None,
                       help="shut down cleanly after N seconds "
                            "(default: run until interrupted)")
    serve.set_defaults(handler=_command_serve)

    loadgen = subparsers.add_parser(
        "loadgen", help="drive a serve daemon and measure latency")
    _add_instance_arguments(loadgen)
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=7411)
    loadgen.add_argument("--active", type=int, default=100,
                         help="concurrent subscriber connections")
    loadgen.add_argument("--publishers", type=int, default=4)
    loadgen.add_argument("--events", type=int, default=2000,
                         help="events to publish (pre-sampled, seeded)")
    loadgen.add_argument("--rate", type=float, default=500.0,
                         help="aggregate publish rate, events/second")
    loadgen.add_argument("--duration", type=float, default=None,
                         help="wall-clock cap on the publish phase")
    loadgen.add_argument("--churn-interval", type=float, default=0.0,
                         help="seconds between subscriber flaps (0 = off)")
    loadgen.add_argument("--min-delivery-rate", type=float, default=0.0,
                         help="exit 1 when the delivery rate ends lower")
    loadgen.add_argument("--min-reopts", type=int, default=0,
                         help="exit 1 with fewer live re-optimizations")
    loadgen.add_argument("--json", default=None, metavar="PATH",
                         help="write the BENCH_serve payload here")
    loadgen.set_defaults(handler=_command_loadgen)

    analyze = subparsers.add_parser(
        "analyze",
        help="determinism / async-safety / contract static analysis")
    analyze.add_argument("--root", default=None, metavar="DIR",
                         help="source root to scan (default: the installed "
                              "repro package)")
    analyze.add_argument("--rules", nargs="+", default=None,
                         metavar="RULE",
                         help="rule ids or families to run, e.g. DET ASY "
                              "CON001 (default: all)")
    analyze.add_argument("--json", default=None, metavar="PATH",
                         help="write the full report payload as JSON")
    analyze.add_argument("--check-against", default=None, metavar="BASELINE",
                         help="ratchet gate: exit 2 when any file::rule "
                              "count exceeds this committed baseline")
    analyze.add_argument("--write-baseline", default=None, metavar="PATH",
                         help="freeze the current counts as the baseline")
    analyze.set_defaults(handler=_command_analyze)

    algorithms = subparsers.add_parser("algorithms",
                                       help="list algorithm names")
    algorithms.set_defaults(handler=_command_algorithms)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
