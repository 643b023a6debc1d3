"""Reoptimizer tests: churn triggering, invariant gating, veto behaviour."""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.serve import (
    LiveBroker,
    Reoptimizer,
    ReoptimizerConfig,
    ServeClient,
    ServeConfig,
    ServeDaemon,
)
from repro.workloads import GridConfig, generate_grid, one_level_problem


@pytest.fixture(scope="module")
def problem():
    workload = generate_grid(9, GridConfig(num_subscribers=48, num_brokers=6))
    return one_level_problem(workload)


def run(coro):
    return asyncio.run(coro)


def make_reoptimizer(problem, *, validator=None, **config_overrides):
    defaults = dict(churn_threshold=8, poll_interval=0.01)
    defaults.update(config_overrides)
    broker = LiveBroker(problem)
    reopt = Reoptimizer(broker, ReoptimizerConfig(**defaults),
                        churn_lock=asyncio.Lock(), validator=validator)
    return broker, reopt


class TestConfig:
    @pytest.mark.parametrize("kwargs", [dict(churn_threshold=0),
                                        dict(poll_interval=0.0),
                                        dict(min_active=0)])
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ReoptimizerConfig(**kwargs)


class TestTriggering:
    def test_not_due_below_threshold_or_population(self, problem):
        async def body():
            broker, reopt = make_reoptimizer(problem, churn_threshold=4)
            assert not reopt.due()
            broker.subscribe(0)
            broker.subscribe(1)
            broker.subscribe(2)
            assert not reopt.due()      # 3 churn events < 4
            broker.subscribe(3)
            assert reopt.due()

        run(body())

    def test_min_active_guard(self, problem):
        async def body():
            broker, reopt = make_reoptimizer(problem, churn_threshold=2,
                                             min_active=4)
            broker.subscribe(0)
            broker.subscribe(1)
            broker.unsubscribe(1)       # 3 churn events, 1 active
            assert not reopt.due()

        run(body())

    def test_commit_resets_churn_and_swaps_routing(self, problem):
        async def body():
            broker, reopt = make_reoptimizer(problem)
            for j in range(10):
                broker.subscribe(j)
            version = broker.routing.version
            info = await reopt.reoptimize_now()
            assert info["committed"] is True
            assert reopt.runs == 1 and reopt.rejected == 0
            assert broker.churn_since_reopt == 0
            assert broker.routing.version == version + 1
            # The fresh table serves exactly the active set.
            assert (broker.routing.assignment >= 0).sum() == 10

        run(body())


class TestInvariantGate:
    def test_default_validator_verifies_and_commits(self, problem):
        """The stock gate runs verify_solution and lets a sound SLP pass."""
        async def body():
            broker, reopt = make_reoptimizer(problem)
            for j in range(12):
                broker.subscribe(j)
            info = await reopt.reoptimize_now()
            assert info["committed"] is True
            assert reopt.last_report is None

        run(body())

    def test_vetoed_solution_keeps_old_routing_table(self, problem):
        async def body():
            broker, reopt = make_reoptimizer(
                problem, validator=lambda sub_problem, solution: False)
            for j in range(10):
                broker.subscribe(j)
            table = broker.routing
            before = broker.manager.assignment.copy()

            info = await reopt.reoptimize_now()
            assert info["committed"] is False
            assert info["migrations"] == 0
            assert reopt.rejected == 1 and reopt.runs == 0
            # Old snapshot still installed, manager state untouched.
            assert broker.routing is table
            assert np.array_equal(broker.manager.assignment, before)
            # Churn is consumed so the loop waits for *new* churn
            # instead of re-solving the same rejected instance forever.
            assert broker.churn_since_reopt == 0

        run(body())

    def test_background_loop_reoptimizes_over_live_churn(self, problem):
        """End-to-end: gateway churn trips the loop, gate verifies, swap."""
        async def body():
            config = ServeConfig(port=0, reopt_threshold=6,
                                 reopt_poll_interval=0.02)
            daemon = ServeDaemon(problem, config)
            await daemon.start()
            try:
                async with await ServeClient.connect(
                        "127.0.0.1", daemon.port) as client:
                    for j in range(12):
                        await client.subscribe(j)
                    for _ in range(200):
                        stats = await client.stats()
                        if stats["reoptimizations"] >= 1:
                            break
                        await asyncio.sleep(0.02)
                    assert stats["reoptimizations"] >= 1
                    assert stats["reopt_rejected"] == 0
                    # Publishing still works against the swapped table.
                    summary = await client.publish([0.5, 0.5])
                    assert summary["missed"] == 0
            finally:
                await daemon.stop()

        run(body())


class TestStop:
    def test_cancelled_run_holds_the_lock_until_its_solve_ends(self, problem):
        # A worker thread cannot be interrupted: until its solve returns,
        # nothing else may take the churn lock and mutate the broker.
        solving = threading.Event()
        solved = threading.Event()

        def slow_reoptimize(*_args, **_kwargs):
            solving.set()
            time.sleep(0.2)
            solved.set()
            return {"committed": False, "active": 0}

        async def body():
            broker, reopt = make_reoptimizer(problem)
            broker.reoptimize = slow_reoptimize
            task = asyncio.ensure_future(reopt.reoptimize_now())
            while not solving.is_set():
                await asyncio.sleep(0.005)
            task.cancel()
            await asyncio.wait({task}, timeout=5.0)
            assert task.cancelled()
            assert solved.is_set()
            assert not reopt._lock.locked()

        run(body())

    def test_a_solve_failing_after_cancel_is_logged(self, problem, caplog):
        solving = threading.Event()

        def failing_reoptimize(*_args, **_kwargs):
            solving.set()
            time.sleep(0.05)
            raise RuntimeError("solver gave up")

        async def body():
            broker, reopt = make_reoptimizer(problem)
            broker.reoptimize = failing_reoptimize
            task = asyncio.ensure_future(reopt.reoptimize_now())
            while not solving.is_set():
                await asyncio.sleep(0.005)
            task.cancel()
            await asyncio.wait({task}, timeout=5.0)
            assert task.cancelled()

        with caplog.at_level("ERROR", logger="repro.serve.reoptimizer"):
            run(body())
        [record] = caplog.records
        assert record.exc_info[1].args == ("solver gave up",)
