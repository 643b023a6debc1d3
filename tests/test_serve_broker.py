"""LiveBroker unit tests: queues, backpressure accounting, routing swaps."""

import asyncio

import numpy as np
import pytest

from repro.serve import DeliveryQueue, LiveBroker
from repro.workloads import GridConfig, generate_grid, one_level_problem


@pytest.fixture(scope="module")
def problem():
    workload = generate_grid(5, GridConfig(num_subscribers=40, num_brokers=4))
    return one_level_problem(workload)


def run(coro):
    return asyncio.run(coro)


def sub_center(problem, j):
    return (problem.subscriptions.lo[j] + problem.subscriptions.hi[j]) / 2.0


class TestDeliveryQueue:
    def test_offer_and_drain(self):
        q = DeliveryQueue(subscriber=3, capacity=2)
        assert q.offer("a") and q.offer("b")
        assert q.enqueued == 2 and q.peak == 2
        assert q.take(1) == ["a"]
        assert q.take(8) == ["b"]
        assert q.taken == 2 and len(q) == 0

    def test_overflow_counts_drops(self):
        q = DeliveryQueue(subscriber=0, capacity=2)
        assert q.offer(1) and q.offer(2)
        assert not q.offer(3)
        assert not q.offer(4)
        assert q.dropped == 2 and q.enqueued == 2

    def test_close_sheds_pending_and_rejects_offers(self):
        q = DeliveryQueue(subscriber=0, capacity=4)
        q.offer("x")
        q.close()
        q.close()  # idempotent
        assert not q.offer("y")
        assert q.take(8) == []

    def test_offer_into_empty_queue_calls_ready_hook(self):
        q = DeliveryQueue(subscriber=5, capacity=4)
        woken = []
        q.bind(woken.append)
        q.offer("a")
        q.offer("b")
        assert woken == [q]           # only the empty -> non-empty offer
        q.take(8)
        q.offer("c")
        assert woken == [q, q]

    def test_offer_many_fills_then_drops_like_single_offers(self):
        grouped = DeliveryQueue(subscriber=1, capacity=4)
        single = DeliveryQueue(subscriber=1, capacity=4)
        woken = []
        grouped.bind(woken.append)
        for items in (["a", "b"], [], ["c", "d", "e"], ["f"]):
            taken = grouped.offer_many(items)
            assert taken == sum(single.offer(item) for item in items)
        assert woken == [grouped]     # one wake for the first offer
        for attr in ("enqueued", "dropped", "peak"):
            assert getattr(grouped, attr) == getattr(single, attr)
        assert grouped.take(8) == single.take(8) == ["a", "b", "c", "d"]
        grouped.close()
        assert grouped.offer_many(["x", "y"]) == 0
        assert grouped.dropped == 4

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            DeliveryQueue(subscriber=0, capacity=0)


class TestBackpressure:
    def test_publish_drops_when_queue_full_and_accounts_them(self, problem):
        async def body():
            broker = LiveBroker(problem, queue_capacity=3)
            broker.subscribe(0)
            point = sub_center(problem, 0)
            summaries = [broker.publish(point) for _ in range(8)]
            delivered = sum(s["delivered"] for s in summaries)
            dropped = sum(s["dropped"] for s in summaries)
            assert delivered == 3          # queue depth
            assert dropped == 5            # shed by backpressure
            assert broker.deliveries[0] == 3
            assert broker.drops[0] == 5
            stats = broker.stats()
            assert stats["dropped_backpressure"] == 5
            assert stats["delivery_rate"] == pytest.approx(3 / 8)
            assert stats["queue_depth_peak"] == 3

        run(body())

    def test_draining_restores_delivery(self, problem):
        async def body():
            broker = LiveBroker(problem, queue_capacity=2)
            broker.subscribe(0)
            point = sub_center(problem, 0)
            broker.publish(point)
            broker.publish(point)
            broker.publish(point)  # dropped
            broker.queue(0).take(1)
            broker.publish(point)  # fits again
            assert broker.deliveries[0] == 3
            assert broker.drops[0] == 1

        run(body())


class TestUnsubscribeShedding:
    def test_unsubscribe_counts_the_events_it_sheds(self, problem):
        async def body():
            broker = LiveBroker(problem, queue_capacity=16)
            broker.subscribe(0)
            point = sub_center(problem, 0)
            for _ in range(5):
                broker.publish(point)
            broker.queue(0).take(2)  # the pump wrote two of them
            queued = len(broker.queue(0))
            assert queued == 3
            broker.unsubscribe(0)
            stats = broker.stats()
            assert stats["shed_on_unsubscribe"] == queued
            assert stats["delivered"] == 5  # still "enqueued"

        run(body())


class TestBrokerStateMachine:
    def test_subscribe_assigns_a_real_leaf(self, problem):
        async def body():
            broker = LiveBroker(problem)
            leaf = broker.subscribe(7)
            assert leaf in set(int(v) for v in problem.tree.leaves)
            assert broker.routing.assignment[7] == leaf
            assert broker.active_count == 1

        run(body())

    def test_routing_table_versions_and_immutability(self, problem):
        async def body():
            broker = LiveBroker(problem)
            v0 = broker.routing.version
            broker.subscribe(0)
            table = broker.routing
            assert table.version == v0 + 1
            with pytest.raises(ValueError):
                table.assignment[0] = -5  # snapshot is write-protected
            broker.unsubscribe(0)
            assert broker.routing.version == v0 + 2
            # The old snapshot is untouched by the swap.
            assert table.assignment[0] >= 0

        run(body())

    def test_unsubscribed_events_are_missed_not_delivered(self, problem):
        async def body():
            broker = LiveBroker(problem)
            broker.subscribe(0)
            broker.unsubscribe(0)
            summary = broker.publish(sub_center(problem, 0))
            assert summary == {"matched": 0, "delivered": 0, "dropped": 0,
                               "missed": 0}

        run(body())

    def test_invalid_operations_raise(self, problem):
        async def body():
            broker = LiveBroker(problem)
            with pytest.raises(ValueError):
                broker.subscribe(-1)
            with pytest.raises(ValueError):
                broker.subscribe(len(problem.subscriptions))
            with pytest.raises(ValueError):
                broker.subscribe(True)  # bools are not indices
            with pytest.raises(ValueError):
                broker.unsubscribe(0)   # never subscribed
            broker.subscribe(0)
            with pytest.raises(ValueError):
                broker.subscribe(0)     # double subscribe
            with pytest.raises(ValueError):
                broker.publish([0.1])   # wrong dimension
            with pytest.raises(ValueError):
                broker.publish([np.nan, 0.2])

        run(body())

    def test_node_entries_track_filter_routing(self, problem):
        async def body():
            broker = LiveBroker(problem)
            broker.subscribe(0)
            before = broker.node_entries.copy()
            broker.publish(sub_center(problem, 0))
            after = broker.node_entries
            assert after[0] == before[0] + 1        # publisher sees all
            leaf = int(broker.routing.assignment[0])
            assert after[leaf] == before[leaf] + 1  # reached the leaf

        run(body())
