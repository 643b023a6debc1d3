"""The serve workload: an open-loop generator against a daemon process.

One generator process holds two connections to the daemon
(``daemon.py``): a *sink* that subscribes the whole population and
receives every delivery, and a *publisher*.  Each event is written when
it is due, whether or not earlier replies have come back, and its
delivery latency runs from when it was due to when the sink reads it,
so a stall is charged to every event it delays.  The generator reports
how late it ran and its CPU share; a window on which it fell behind is
left out rather than reported as the daemon's.

``serve_steady`` alternates windows at a fixed rate with overload
probes, with no churn.  Throughput is the daemon's capacity: the events
per second it gets through while probes overload it, over all probes.
The traced run adds a churn phase after the measured window: the same
publishing while the sink connection flaps members (an
unsubscribe and its resubscribe every 20 ms), which drives SLP1
re-optimizations; it feeds the reoptimizer and churn-lock layers.

``latency_ms`` is the median delivery latency, taken per window and then
as the lower quartile over the windows, which are spread over the whole
run; the p99 is taken per window and then as the median over windows,
per layer and in the result file.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from common import OUT, Outcome
from daemon import SUBSCRIBERS, build_problem
from layers import per_layer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

LATE_P99_LIMIT_MS = 10.0   #: generator lateness beyond which a window is invalid
REF_RATE = 400.0           #: events/s of serve_steady's reference windows
REF_WINDOW = 0.015         #: reference window, as a share of --seconds
OVERLOAD_RATE = 6000.0     #: events/s of a capacity probe, above capacity
PROBE = 0.008              #: probe length, as a share of --seconds
MIN_PROBES = 4
SETUP_REPEATS = 3          #: untraced set-ups per run; the median is reported
CHURN_RATE = 500.0         #: events/s during the traced churn phase
CHURN_WINDOW_S = 0.25
CHURN_SHARE = 0.3          #: churn phase, as a share of --seconds ...
CHURN_REOPTS = 2           #: ... and at least this many re-optimizations
#: The quantile over windows of their median latency that ``latency_ms``
#: reports: the lower quartile, which reads the shared host's fast
#: stretches rather than whichever stretch a run landed in.
WINDOW_QUANTILE = 25
FLAP_MEMBERS = 32
FLAP_PAIR_INTERVAL_S = 0.02
DRAIN_TIMEOUT_S = 15.0
READY_TIMEOUT_S = 60.0
REPLY_TIMEOUT_S = 60.0


# -- the daemon process -------------------------------------------------------


class DaemonProcess:
    """``daemon.py`` as a child process, stopped and awaited on close."""

    def __init__(self, trace: bool, spans: str | None = None,
                 cpu: int | None = None):
        command = [sys.executable, os.path.join(HERE, "daemon.py"),
                   "--trace", str(int(trace))]
        if spans:
            command += ["--spans", spans]
        if cpu is not None:
            command += ["--cpu", str(cpu)]
        self.proc = subprocess.Popen(command, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True,
                                     cwd=ROOT)
        self.port = int(self._read_line("READY", READY_TIMEOUT_S))

    def _read_line(self, tag: str, timeout: float) -> str:
        found: list[str] = []

        def read() -> None:
            for line in self.proc.stdout:
                if line.startswith(tag + " "):
                    found.append(line[len(tag) + 1:].strip())
                    return

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(timeout)
        if not found:
            self.kill()
            raise RuntimeError(f"daemon printed no {tag} line "
                               f"within {timeout:.0f}s")
        return found[0]

    def stop(self, window: tuple[float, float]) -> dict[str, Any]:
        self.proc.stdin.write(f"STOP {window[0]!r} {window[1]!r}\n")
        self.proc.stdin.close()
        summary = json.loads(self._read_line("SUMMARY", 120.0))
        self.proc.wait(timeout=30)
        return summary

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)


# -- the generator ------------------------------------------------------------


class _Conn:
    """One raw connection; newline frames go to ``on_frame``."""

    def __init__(self, reader, writer, on_frame):
        self.reader = reader
        self.writer = writer
        self._on_frame = on_frame
        self.task = asyncio.get_running_loop().create_task(self._read())

    async def _read(self) -> None:
        rest = b""
        while True:
            # Small reads keep each parse burst short, so the publisher
            # task is not held past its due times.
            chunk = await self.reader.read(1 << 14)
            if not chunk:
                return
            now = time.perf_counter()
            lines = (rest + chunk).split(b"\n")
            rest = lines.pop()
            for line in lines:
                self._on_frame(json.loads(line), now)

    async def close(self) -> None:
        self.task.cancel()
        try:
            await self.task
        except asyncio.CancelledError:
            pass
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except OSError:
            pass


@dataclass
class Phase:
    """One stretch of publishing at a fixed rate, and what came back."""

    rate: float
    count: int
    first_due: float = 0.0
    receipts: list[float] = field(default_factory=list)
    reply_rtt: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    lateness: list[float] = field(default_factory=list)

    @property
    def valid(self) -> bool:
        """False when the generator itself fell behind its schedule."""
        return (not self.lateness or float(np.percentile(self.lateness, 99))
                <= LATE_P99_LIMIT_MS / 1e3)

    def summary(self) -> dict[str, Any]:
        lat = np.asarray(self.latencies) * 1e3
        late = np.asarray(self.lateness) * 1e3
        return {"rate": self.rate, "events": self.count,
                "samples": int(lat.size),
                "p50_ms": float(np.percentile(lat, 50)) if lat.size else 0.0,
                "p99_ms": float(np.percentile(lat, 99)) if lat.size else 0.0,
                "late_p99_ms": float(np.percentile(late, 99))
                if late.size else 0.0,
                "valid": self.valid}


class Generator:
    """Open-loop publisher, delivery sink and churn client in one process."""

    def __init__(self, port: int, seed: int, flapped: set[int]):
        workload, self.problem = build_problem()
        from repro import BruteForceMatcher, UniformEvents
        self._matcher = BruteForceMatcher(self.problem.subscriptions)
        self._events = UniformEvents(workload.event_domain)
        self._rng = np.random.default_rng(seed)
        self.port = port
        self.flapped = flapped
        self.stable = np.ones(SUBSCRIBERS, dtype=bool)
        self.stable[list(flapped)] = False
        self.due: list[float] = []
        self.sent: list[float] = []
        self.phase_of: list[int] = []
        self.expected_stable: list[int] = []   #: per event
        self.expected_by_sub = np.zeros(SUBSCRIBERS, dtype=np.int64)
        self.received_by_sub = np.zeros(SUBSCRIBERS, dtype=np.int64)
        self.received_stable: list[int] = []   #: per event
        self.received = 0
        self.phases: list[Phase] = []
        self.errors = 0
        self.refused: set[int] = set()
        self.replied = 0
        self.churn_latency: list[float] = []
        self.churn_errors = 0
        self._pending: dict[Any, asyncio.Future] = {}
        self._next_id = 0

    async def connect(self) -> None:
        loop = asyncio.get_running_loop()
        self.loop = loop
        sink = await asyncio.open_connection("127.0.0.1", self.port,
                                             limit=1 << 20)
        pub = await asyncio.open_connection("127.0.0.1", self.port,
                                            limit=1 << 20)
        self.sink = _Conn(*sink, self._on_sink)
        self.pub = _Conn(*pub, self._on_pub)

    async def close(self) -> None:
        await self.sink.close()
        await self.pub.close()

    # frame handlers run inside the reader tasks: keep them lean.

    def _on_sink(self, msg: dict[str, Any], now: float) -> None:
        if msg.get("type") == "event":
            k = msg["eventId"]
            j = msg["subscriber"]
            self.received += 1
            self.received_by_sub[j] += 1
            if self.stable[j]:
                self.received_stable[k] += 1
            phase = self.phases[self.phase_of[k]]
            phase.latencies.append(now - self.due[k])
            phase.receipts.append(now)
            return
        self._resolve(msg)

    def _on_pub(self, msg: dict[str, Any], now: float) -> None:
        k = msg.get("id")
        if isinstance(k, int):
            self.replied += 1
            self.phases[self.phase_of[k]].reply_rtt.append(now - self.sent[k])
            if not msg.get("ok"):
                self.errors += 1
                self.refused.add(k)
            return
        self._resolve(msg)

    def _resolve(self, msg: dict[str, Any]) -> None:
        future = self._pending.pop(msg.get("id"), None)
        if future is not None and not future.done():
            future.set_result(msg)

    def _submit(self, conn: _Conn, requests: list[dict[str, Any]]
                ) -> list[asyncio.Future]:
        """Write requests in one write; one reply future per request."""
        futures = []
        frames = []
        for fields in requests:
            req_id = f"r{self._next_id}"
            self._next_id += 1
            futures.append(self.loop.create_future())
            self._pending[req_id] = futures[-1]
            frames.append(json.dumps({"id": req_id, **fields}).encode()
                          + b"\n")
        conn.writer.write(b"".join(frames))
        return futures

    async def request(self, conn: _Conn, op: str, **fields: Any) -> dict:
        [future] = self._submit(conn, [{"op": op, **fields}])
        return await asyncio.wait_for(future, REPLY_TIMEOUT_S)

    async def stats(self) -> dict[str, Any]:
        return (await self.request(self.pub, "stats"))["stats"]

    async def subscribe_all(self) -> None:
        """Pipeline every subscribe on the sink; wait for all replies."""
        replies = await asyncio.gather(*(
            self.request(self.sink, "subscribe", subscriber=j)
            for j in range(SUBSCRIBERS)))
        bad = [r for r in replies if not r.get("ok")]
        if bad:
            raise RuntimeError(f"{len(bad)} subscribes refused: {bad[0]}")

    async def settle(self) -> dict[str, Any]:
        """Wait until the set-up re-optimization committed and went idle."""
        deadline = time.perf_counter() + READY_TIMEOUT_S
        while time.perf_counter() < deadline:
            stats = await self.stats()
            if stats["reoptimizations"] >= 1 \
                    and stats["churn_since_reopt"] == 0:
                return stats
            await asyncio.sleep(0.05)
        raise RuntimeError("set-up re-optimization did not finish")

    # -- publishing ----------------------------------------------------------

    async def run_phase(self, rate: float, seconds: float) -> Phase:
        """Publish ``rate * seconds`` events on an open-loop schedule."""
        count = max(int(rate * seconds), 1)
        first = len(self.due)
        phase = Phase(rate, count)
        self.phases.append(phase)
        points = self._events.sample(self._rng, count)
        match = self._matcher.match_points(points)          # (subs, events)
        self.expected_by_sub += match.sum(axis=1)
        self.expected_stable.extend(
            match[self.stable].sum(axis=0).tolist())
        self.received_stable.extend([0] * count)
        frames = [json.dumps({"op": "publish", "id": first + i,
                              "eventId": first + i,
                              "point": points[i].tolist()}).encode() + b"\n"
                  for i in range(count)]
        start = time.perf_counter() + 0.005
        dues = start + np.arange(count) / rate
        phase.first_due = start
        self.due.extend(dues.tolist())
        self.sent.extend([0.0] * count)
        self.phase_of.extend([len(self.phases) - 1] * count)
        writer = self.pub.writer
        i = 0
        while i < count:
            now = time.perf_counter()
            if dues[i] > now:
                await asyncio.sleep(dues[i] - now)
                now = time.perf_counter()
            j = int(np.searchsorted(dues, now, side="right"))
            j = max(j, i + 1)
            writer.write(b"".join(frames[i:j]))
            phase.lateness.extend((now - dues[i:j]).tolist())
            for k in range(first + i, first + j):
                self.sent[k] = now
            i = j
        return phase

    async def drain(self) -> None:
        """Wait for every stable delivery and every publish reply.

        Gives up after ``DRAIN_TIMEOUT_S``; the output checks then report
        what is missing.
        """
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        while time.perf_counter() < deadline:
            if (sum(self.received_stable) >= sum(self.expected_stable)
                    and self.replied >= len(self.due)):
                return
            await asyncio.sleep(0.01)

    # -- churn ---------------------------------------------------------------

    async def flap(self, stop: asyncio.Event) -> int:
        """Flap members: an unsubscribe and its resubscribe, every 20 ms.

        Each pair goes out in one write, so the daemon applies both
        before a re-optimization can take the churn lock: every
        re-optimization sees the whole population, and its work does not
        depend on which member happened to be out.  A pair that arrives
        while a re-optimization holds the lock waits for it.
        """
        members = sorted(self.flapped)
        ops = 0
        due = time.perf_counter()
        while not stop.is_set():
            j = members[(ops // 2) % len(members)]
            started = time.perf_counter()
            for future in self._submit(self.sink, [
                    {"op": "unsubscribe", "subscriber": j},
                    {"op": "subscribe", "subscriber": j}]):
                reply = await asyncio.wait_for(future, REPLY_TIMEOUT_S)
                self.churn_latency.append(time.perf_counter() - started)
                if not reply.get("ok"):
                    self.churn_errors += 1
            ops += 2
            due = max(due + FLAP_PAIR_INTERVAL_S, time.perf_counter())
            await asyncio.sleep(due - time.perf_counter())
        return ops


# -- checks -------------------------------------------------------------------


def check_serve(gen: Generator, stats: dict[str, Any], churn: bool
                ) -> list[str]:
    """Output checks: every stable delivery in, server and sink agree."""
    failures = []
    expected = gen.expected_by_sub[gen.stable]
    got = gen.received_by_sub[gen.stable]
    if not np.array_equal(expected, got):
        missing = int(np.maximum(expected - got, 0).sum())
        extra = int(np.maximum(got - expected, 0).sum())
        failures.append(f"sink deliveries differ from the subscriptions' "
                        f"matches: {missing} missing, {extra} unexpected")
    if not churn and stats["delivered"] != gen.received:
        failures.append(f"server delivered {stats['delivered']} but the sink "
                        f"received {gen.received}")
    if churn and gen.received > stats["delivered"]:
        failures.append("sink received more than the server delivered")
    for key in ("request_errors", "missed", "dropped_backpressure"):
        if stats[key]:
            failures.append(f"server {key} = {stats[key]}")
    if gen.errors or gen.churn_errors:
        failures.append(f"{gen.errors} publish and {gen.churn_errors} churn "
                        f"error replies")
    if stats["published"] != len(gen.due):
        failures.append(f"server published {stats['published']} of "
                        f"{len(gen.due)} events sent")
    return failures


def failed_publishes(gen: Generator) -> int:
    """Publishes refused, unanswered, or with a stable delivery missing."""
    short = np.asarray(gen.received_stable) < np.asarray(gen.expected_stable)
    short[list(gen.refused)] = True
    return int(short.sum()) + max(len(gen.due) - gen.replied, 0)


# -- workloads ----------------------------------------------------------------


def busy_s(probe: Phase) -> float:
    """Seconds from an overload probe's first due time to the 90th
    percentile of its delivery receipt times (0 without receipts), so a
    few straggling pump writes do not stretch the probe."""
    if not probe.receipts:
        return 0.0
    return max(float(np.percentile(probe.receipts, 90)) - probe.first_due,
               0.0)


def capacity(probes: list[Phase]) -> float:
    """Events per second the daemon got through during overload probes.

    90% of the probes' events over their summed busy time.  The host
    moves between fast and slow stretches, and a run's probes fall in a
    mix of both; the total over all probes moves in proportion to that
    mix, where their median jumps between the two speeds.
    """
    busy = sum(busy_s(p) for p in probes)
    return 0.9 * sum(p.count for p in probes) / busy if busy > 0 else 0.0


async def _steady(gen: Generator, seconds: float
                  ) -> tuple[list[Phase], list[Phase]]:
    """Reference windows alternating with overload probes.

    Both repeat until ``seconds`` have passed (at least ``MIN_PROBES``
    probes).  The shared host has slow stretches lasting seconds, so
    the windows sample latency and the probes the daemon's capacity
    across the whole run.
    """
    started = time.perf_counter()
    windows: list[Phase] = []
    probes: list[Phase] = []

    async def run(rate: float, share: float) -> Phase:
        phase = await gen.run_phase(rate, share * seconds)
        await gen.drain()
        return phase

    windows.append(await run(REF_RATE, REF_WINDOW))
    while (time.perf_counter() - started < seconds
           or len(probes) < MIN_PROBES):
        probes.append(await run(OVERLOAD_RATE, PROBE))
        windows.append(await run(REF_RATE, REF_WINDOW))
    return windows, probes


async def _churn(gen: Generator, seconds: float
                 ) -> tuple[list[Phase], int, float]:
    """Windows at a fixed rate while the sink flaps members throughout.

    Runs for at least ``seconds`` and until ``CHURN_REOPTS``
    re-optimizations have committed since it began.
    """
    stop = asyncio.Event()
    started = time.perf_counter()
    first = (await gen.stats())["reoptimizations"]
    flapper = asyncio.get_running_loop().create_task(gen.flap(stop))
    windows = []
    while (time.perf_counter() - started < seconds
           or (await gen.stats())["reoptimizations"] - first < CHURN_REOPTS):
        windows.append(await gen.run_phase(CHURN_RATE, CHURN_WINDOW_S))
    stop.set()
    ops = await flapper
    elapsed = time.perf_counter() - started
    await gen.drain()
    return windows, ops, elapsed


async def _set_up(seed: int, flapped: set[int], trace: bool,
                  spans: str | None, cpu: int | None
                  ) -> tuple[DaemonProcess, Generator, float]:
    """Start a daemon and subscribe the population, until it is idle.

    Returns the daemon, its generator and the seconds that took.
    """
    started = time.perf_counter()
    daemon = DaemonProcess(trace, spans, cpu)
    try:
        gen = Generator(daemon.port, seed, flapped)
        await gen.connect()
        await gen.subscribe_all()
        await gen.settle()
    except BaseException:
        daemon.kill()
        raise
    return daemon, gen, time.perf_counter() - started


async def _session(seed: int, seconds: float, trace: bool,
                   spans: str | None) -> dict[str, Any]:
    """Set up, measure the steady window, and (traced) a churn phase.

    Untraced, set-up runs ``SETUP_REPEATS`` times, each with a daemon of
    its own, and the median is reported; all but the last daemon are
    stopped at once.
    """
    rng = np.random.default_rng(seed)
    flapped = (set(rng.choice(SUBSCRIBERS, FLAP_MEMBERS, replace=False)
                   .tolist()) if trace else set())
    # With two CPUs or more, the daemon gets one to itself and the
    # generator the rest.  Left to the scheduler, the two processes,
    # which wake each other through their sockets, were sometimes placed
    # on one CPU and sometimes on two for a whole run, and the daemon's
    # capacity read a third lower in the first case.
    cpus = sorted(os.sched_getaffinity(0))
    cpu = cpus[-1] if len(cpus) >= 2 else None
    setup_times: list[float] = []
    try:
        if cpu is not None:
            os.sched_setaffinity(0, set(cpus[:-1]))
        for _ in range(0 if trace else SETUP_REPEATS - 1):
            spare, gen, elapsed = await _set_up(seed, flapped, False, None,
                                                cpu)
            setup_times.append(elapsed)
            try:
                await gen.close()
            finally:
                spare.kill()
        daemon, gen, elapsed = await _set_up(seed, flapped, trace, spans, cpu)
        setup_times.append(elapsed)
        try:
            gc.disable()  # collector pauses would read as generator lateness
            try:
                cpu0 = time.process_time()
                t0 = time.perf_counter()
                before = await gen.stats()
                windows, probes = await _steady(gen, seconds)
                cpu_share = ((time.process_time() - cpu0)
                             / (time.perf_counter() - t0))
                churn: dict[str, Any] = {"windows": [], "ops": 0,
                                         "seconds": 0.0}
                if trace:
                    churn["windows"], churn["ops"], churn["seconds"] = \
                        await _churn(gen, CHURN_SHARE * seconds)
                end = await gen.stats()
                t2 = time.perf_counter()
            finally:
                gc.enable()
            await gen.drain()
            final = await gen.stats()
            await gen.close()
            summary = daemon.stop((t0, t2))
        except BaseException:
            daemon.kill()
            raise
    finally:
        os.sched_setaffinity(0, set(cpus))
    return {"gen": gen, "setup_s": float(np.median(setup_times)),
            "setup_times": setup_times, "before": before, "end": end,
            "final": final, "windows": windows, "probes": probes,
            "churn": churn, "cpu_share": cpu_share, "daemon": summary}


def _percentile_ms(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values) * 1e3, q)) if values \
        else 0.0


def _over_windows(windows: list[Phase], key: str, q: float) -> float:
    """Quantile ``q`` of a per-window value, over the windows the
    generator kept up on (all of them if it kept up on none)."""
    kept = [w for w in windows if w.valid] or windows
    return float(np.percentile([w.summary()[key] for w in kept], q))


def run_serve_steady(seed: int, seconds: float, tracer: Any) -> Outcome:
    """The steady window; a traced run adds the churn phase after it."""
    spans = None
    if tracer is not None:
        os.makedirs(OUT, exist_ok=True)
        spans = os.path.join(OUT, f"serve_steady-seed{seed}.daemon.spans.jsonl")
    s = asyncio.run(_session(seed, seconds, tracer is not None, spans))
    gen: Generator = s["gen"]
    failures = check_serve(gen, s["final"], churn=bool(gen.flapped))
    # A refused publish misses the latency limit.
    latency = (float("inf") if gen.refused
               else _over_windows(s["windows"], "p50_ms", WINDOW_QUANTILE))
    outcome = Outcome(
        setup_s=s["setup_s"], peak_rss_mb=s["daemon"]["peak_rss_mb"],
        latency_ms=latency,
        throughput_per_s=capacity(s["probes"]),
        attempted=len(gen.due) + len(gen.churn_latency),
        failed=failed_publishes(gen) + gen.churn_errors, failures=failures,
        detail={"windows": [w.summary() for w in s["windows"]],
                "capacity_per_probe": [capacity([p]) for p in s["probes"]],
                "setup_times_s": s["setup_times"],
                "latency_p99_ms": _over_windows(s["windows"], "p99_ms", 50),
                "server_stats": s["final"],
                "generator_cpu_share": s["cpu_share"]})
    if tracer is not None:
        outcome.layers = _serve_layers(s, outcome)
    return outcome


def _serve_layers(s: dict[str, Any], outcome: Outcome) -> dict[str, float]:
    """Per-layer values over the steady window and the churn phase."""
    gen: Generator = s["gen"]
    before, end = s["before"], s["end"]
    daemon = s["daemon"]
    churn = s["churn"]
    published = end["published"] - before["published"]
    reopts = end["reoptimizations"] - before["reoptimizations"]
    matched = end["matched"] - before["matched"]
    lateness = [x for w in s["windows"] for x in w.lateness]
    rtt = [x for w in s["windows"] for x in w.reply_rtt]  # not overload
    broker_ops = [row for name, row in daemon["layers"].items()
                  if name in ("serve.broker.subscribe",
                              "serve.broker.unsubscribe")]
    op_s = (sum(r["total_s"] for r in broker_ops)
            / max(sum(r["calls"] for r in broker_ops), 1))
    churn_p99 = _percentile_ms(gen.churn_latency, 99)
    cpu = daemon["cpu_s"]
    return per_layer(daemon["layers"], daemon["counts"], assignments=reopts,
                     kevents=published / 1000, reopts=reopts, extra={
        "delivered_per_matched":
            (end["delivered"] - before["delivered"]) / matched
            if matched else 0.0,
        "serve.latency_p99_ms": outcome.detail["latency_p99_ms"],
        "serve.churn_latency_ms":
            _over_windows(churn["windows"], "p50_ms", WINDOW_QUANTILE)
            if churn["windows"] else 0.0,
        "serve.churn_ops_per_s":
            churn["ops"] / churn["seconds"] if churn["seconds"] else 0.0,
        "serve.churn_op_p99_ms": churn_p99,
        "serve.churn_lock_wait_p99_ms":
            max(churn_p99 - op_s * 1e3, 0.0) if gen.churn_latency else 0.0,
        "serve.queue_depth_peak": end["queue_depth_peak"],
        "serve.dropped_backpressure": end["dropped_backpressure"],
        "serve.missed": end["missed"],
        "serve.entries_per_event":
            (end["broker_entries"] - before["broker_entries"]) / published
            if published else 0.0,
        "serve.request_errors": end["request_errors"],
        "serve.reoptimizations": reopts,
        "serve.reopt_migrations":
            end["reopt_migrations"] - before["reopt_migrations"],
        "loadgen.late_max_ms": max(lateness) * 1e3 if lateness else 0.0,
        "loadgen.cpu_share": s["cpu_share"],
        "loadgen.reply_rtt_p50_ms": _percentile_ms(rtt, 50),
        "loadgen.reply_rtt_p99_ms": _percentile_ms(rtt, 99),
        "trace.unattributed_share":
            max(cpu - daemon["attributed_s"], 0.0) / cpu if cpu else 0.0,
        "trace.spans": daemon["spans"],
        "trace.latency_ms": outcome.latency_ms,
        "trace.throughput_per_s": outcome.throughput_per_s,
    })
