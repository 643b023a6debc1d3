"""Tests of the benchmark itself (outside the repository's tier-1 suite).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import batch  # noqa: E402
import serve_bench  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = ("assign", "simulate", "runtime", "serve_steady")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd,
                          timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- every workload, tiny -----------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_at_tiny_size(workload):
    result = _result(_run("--workload", workload, "--seed", "3",
                          "--seconds", "0.2", "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"]
                                      for m in _spec()["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_and_attributes_the_time():
    result = _result(_run("--workload", "runtime", "--seed", "3",
                          "--seconds", "0.5", "--trace", "1"))
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in _spec()["per_layer"]}
    assert metrics["trace.unattributed_share"]["value"] < 0.10
    assert metrics["runtime.engine.self_s"]["value"] > 0
    assert metrics["pubsub.match_points_s"]["value"] > 0
    assert metrics["core.slp.lp_solve_s"]["value"] == 0  # no solver here
    assert metrics["delivered_per_matched"]["value"] == 1.0


def test_traced_serve_run_drives_and_times_reoptimization():
    result = _result(_run("--workload", "serve_steady", "--seed", "3",
                          "--seconds", "1", "--trace", "1"))
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert result["correct"] and result["failed"] == 0
    assert metrics["serve.reoptimizations"] >= 2
    assert metrics["serve.broker.publish_s"] > 0
    assert metrics["dynamic.manager.reoptimize_s"] > 0
    assert metrics["perf.fastlp.solve_bounded_lp_calls"] > 0
    assert metrics["serve.churn_ops_per_s"] > 0
    assert metrics["delivered_per_matched"] == 1.0


def test_without_the_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "simulate", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# -- negative controls: corrupted results fail their checks ------------------


def test_corrupted_dissemination_counts_fail_the_oracle_check():
    good = {"node_entries": np.array([10, 4, 6]),
            "deliveries": np.array([3, 2]), "missed": np.array([0, 0])}
    assert batch.check_dissemination([good, good], good) == []
    bad = dict(good, deliveries=np.array([3, 1]))
    assert batch.check_dissemination([good, bad], good)
    missed = dict(good, missed=np.array([0, 1]))
    assert batch.check_dissemination([missed], missed)


def test_unverified_or_drifting_assignments_fail_the_check():
    ok = {"violations": "", "digest": "a"}
    assert batch.check_assignments([ok, ok]) == []
    assert batch.check_assignments([ok, {"violations": "", "digest": "b"}])
    assert batch.check_assignments([{"violations": "nesting: 1",
                                     "digest": "a"}])


def test_a_missing_delivery_fails_the_serve_check():
    stats = {"delivered": 5, "request_errors": 0, "missed": 0,
             "dropped_backpressure": 0, "published": 2}
    gen = SimpleNamespace(
        expected_by_sub=np.array([3, 2]), received_by_sub=np.array([3, 2]),
        stable=np.array([True, True]), received=5, errors=0,
        churn_errors=0, due=[0.0, 0.1])
    assert serve_bench.check_serve(gen, stats, churn=False) == []
    gen.received_by_sub = np.array([3, 1])
    gen.received = 4
    assert len(serve_bench.check_serve(gen, stats, churn=False)) == 2


# -- the open-loop generator --------------------------------------------------


async def _fake_daemon(stall_s: float):
    """Accept a sink, then a publisher; stall, then answer every publish.

    Each publish is answered with a reply and one delivery to member 0.
    """
    conns: list = []

    async def handle(reader, writer):
        conns.append(writer)
        if len(conns) == 1:
            await reader.read()  # the sink only listens
            return
        await asyncio.sleep(stall_s)
        sink = conns[0]
        while line := await reader.readline():
            msg = json.loads(line)
            writer.write(json.dumps({"type": "reply", "ok": True,
                                     "id": msg["id"]}).encode() + b"\n")
            sink.write(json.dumps({"type": "event", "subscriber": 0,
                                   "eventId": msg["eventId"]}).encode()
                       + b"\n")

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


def _drive(stall_s: float, block_s: float, rate: float = 200.0,
           seconds: float = 1.0):
    async def scenario():
        server, port = await _fake_daemon(stall_s)
        gen = serve_bench.Generator(port, seed=1, flapped=set())
        await gen.connect()
        loop = asyncio.get_running_loop()
        if block_s:
            loop.call_later(0.3, time.sleep, block_s)  # the generator stalls
        started = time.perf_counter()
        phase = await gen.run_phase(rate, seconds)
        sent_by = time.perf_counter() - started
        deadline = time.perf_counter() + 5
        while gen.replied < phase.count and time.perf_counter() < deadline:
            await asyncio.sleep(0.01)
        await gen.close()
        server.close()
        await server.wait_closed()
        return gen, phase, sent_by

    return asyncio.run(scenario())


def test_a_stalled_daemon_is_charged_to_latency_not_to_load():
    gen, phase, sent_by = _drive(stall_s=0.5, block_s=0.0)
    assert phase.count == 200 and gen.replied == 200
    assert sent_by < 1.3                      # the schedule kept going
    assert max(phase.lateness) < 0.05          # and the generator kept up
    assert max(phase.latencies) >= 0.45        # the stall shows, from due
    assert np.percentile(phase.reply_rtt, 99) >= 0.3


def test_a_stalled_generator_reports_its_lateness_and_still_sends_all():
    gen, phase, _sent_by = _drive(stall_s=0.0, block_s=0.25)
    assert phase.count == 200 and gen.replied == 200
    assert max(phase.lateness) >= 0.2
    assert not phase.valid  # a window the generator fell behind on
    kept = serve_bench.Phase(200.0, 1, latencies=[0.002], lateness=[0.0])
    assert serve_bench._over_windows([phase, kept], "p50_ms", 25) == \
        pytest.approx(2.0)  # is left out of the latency figure


# -- the span recorder ---------------------------------------------------------


def test_self_time_subtracts_children_and_roots_are_unattributed():
    tracer = Tracer(roots={"op"})
    tracer.add("op", 0.0, 10.0)
    tracer.add("layer.a", 1.0, 5.0)
    tracer.add("layer.b", 2.0, 3.0)
    tracer.add("layer.a", 6.0, 8.0)
    rows = tracer.layers()
    assert rows["op"]["self_s"] == pytest.approx(4.0)
    assert rows["layer.a"]["self_s"] == pytest.approx(5.0)
    assert rows["layer.a"]["calls"] == 2
    assert rows["layer.b"]["self_s"] == pytest.approx(1.0)
    assert tracer.attributed_seconds() == pytest.approx(6.0)
    assert tracer.parents() == [-1, 0, 1, 0]


def test_wrap_records_nested_calls_and_restore_undoes_it():
    class Box:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer = Tracer()
    tracer.wrap(Box, "outer", "box.outer")
    tracer.wrap(Box, "inner", "box.inner", only_inside=("box.outer",))
    assert Box().inner() == 1          # outside outer: untraced
    assert Box().outer() == 2
    assert [s[0] for s in tracer.spans] == ["box.inner", "box.outer"]
    tracer.restore()
    Box().outer()
    assert len(tracer.spans) == 2
