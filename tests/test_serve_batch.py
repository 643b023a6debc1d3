"""Batched publish path of the live broker and gateway.

``publish_batch`` must be an exact aggregation of sequential
``publish`` calls — same counts, same queue contents, same order —
while reading a single routing-table snapshot.  The gateway's
``publish_batch`` op and the micro-batched pump must preserve
per-subscriber delivery order and sequence numbering on the wire.
"""

import asyncio

import numpy as np
import pytest

from repro.serve import ServeClient, ServeConfig, ServeDaemon, ServeError
from repro.serve.broker import LiveBroker
from repro.workloads import GridConfig, generate_grid, one_level_problem


@pytest.fixture(scope="module")
def problem():
    workload = generate_grid(3, GridConfig(num_subscribers=60, num_brokers=6))
    return one_level_problem(workload)


def make_broker(problem, subscribers=range(0, 40)):
    broker = LiveBroker(problem, queue_capacity=256, seed=0)
    for j in subscribers:
        broker.subscribe(int(j))
    return broker


def event_batch(problem, n, seed=0):
    rng = np.random.default_rng(seed)
    lo, hi = problem.subscriptions.lo.min(0), problem.subscriptions.hi.max(0)
    return rng.uniform(lo, hi, size=(n, problem.event_dim))


def drain(queue):
    return queue.take(len(queue))


class TestBrokerBatch:
    def test_batch_equals_sequential_publishes(self, problem):
        pts = event_batch(problem, 64)
        seq_broker = make_broker(problem)
        summaries = [seq_broker.publish(p, sent_at=1.5, event_id=i)
                     for i, p in enumerate(pts)]
        batch_broker = make_broker(problem)
        summary = batch_broker.publish_batch(
            pts, sent_at=1.5, event_ids=list(range(len(pts))))

        for key in ("matched", "delivered", "dropped", "missed"):
            assert summary[key] == sum(s[key] for s in summaries), key
        assert summary["events"] == len(pts)
        assert np.array_equal(seq_broker.deliveries, batch_broker.deliveries)
        assert np.array_equal(seq_broker.node_entries,
                              batch_broker.node_entries)
        assert seq_broker.matched == batch_broker.matched
        assert seq_broker.missed == batch_broker.missed

        # Queue contents: same events, same order, same metadata.
        for j in range(40):
            seq_items = drain(seq_broker.queue(j))
            batch_items = drain(batch_broker.queue(j))
            assert len(seq_items) == len(batch_items)
            for e1, e2 in zip(seq_items, batch_items):
                assert np.array_equal(e1.point, e2.point)
                assert e1.sent_at == e2.sent_at == 1.5
                assert e1.event_id == e2.event_id
                assert e1.tail() == e2.tail()

    def test_empty_batch_is_a_no_op(self, problem):
        broker = make_broker(problem)
        summary = broker.publish_batch([])
        assert summary == {"matched": 0, "delivered": 0, "dropped": 0,
                           "missed": 0, "events": 0}
        assert broker.published == 0

    def test_batch_validation(self, problem):
        broker = make_broker(problem)
        with pytest.raises(ValueError):
            broker.publish_batch([[1.0]])  # wrong dimensionality
        with pytest.raises(ValueError):
            broker.publish_batch([[]])  # one point without coordinates
        with pytest.raises(ValueError):
            broker.publish_batch([[], []])
        with pytest.raises(ValueError):
            broker.publish_batch([[np.nan] * problem.event_dim])
        with pytest.raises(ValueError):
            broker.publish_batch(event_batch(problem, 3), event_ids=[1, 2])

    def test_backpressure_accounting_matches(self, problem):
        # A tiny queue overflows identically on either path.
        pts = event_batch(problem, 200, seed=4)

        def overflowed(publish):
            broker = LiveBroker(problem, queue_capacity=4, seed=0)
            for j in range(20):
                broker.subscribe(j)
            publish(broker)
            return (int(broker.drops.sum()), broker.deliveries.copy())

        seq_drops, seq_deliv = overflowed(
            lambda b: [b.publish(p) for p in pts])
        batch_drops, batch_deliv = overflowed(
            lambda b: b.publish_batch(pts))
        assert seq_drops == batch_drops > 0
        assert np.array_equal(seq_deliv, batch_deliv)


def serve_config(**overrides):
    defaults = dict(port=0, reopt_threshold=10**9)
    defaults.update(overrides)
    return ServeConfig(**defaults)


async def with_daemon(problem, body, **config_overrides):
    daemon = ServeDaemon(problem, serve_config(**config_overrides))
    await daemon.start()
    try:
        return await body(daemon)
    finally:
        await daemon.stop()


class TestGatewayBatch:
    def test_publish_batch_roundtrip_and_order(self, problem):
        async def body(daemon):
            client = await ServeClient.connect("127.0.0.1", daemon.port)
            async with client:
                await client.subscribe(0)
                sub = problem.subscriptions.take(np.array([0]))
                inside = (sub.lo[0] + sub.hi[0]) / 2.0
                pts = [list(inside)] * 5
                reply = await client.publish_batch(
                    pts, sent_at=2.0, event_ids=list(range(5)))
                assert reply["events"] == 5
                assert reply["delivered"] >= 5  # at least subscriber 0
                got = [await asyncio.wait_for(client.events.get(), 5.0)
                       for _ in range(5)]
                mine = [e for e in got if e["subscriber"] == 0]
                assert [e["eventId"] for e in mine] == list(range(len(mine)))
                seqs = [e["seq"] for e in mine]
                assert seqs == sorted(seqs)
                assert all(e["sentAt"] == 2.0 for e in mine)
        asyncio.run(with_daemon(problem, body))

    def test_publish_batch_is_idempotent(self, problem):
        async def body(daemon):
            client = await ServeClient.connect("127.0.0.1", daemon.port)
            async with client:
                pts = event_batch(problem, 8).tolist()
                first = await client.request("publish_batch", points=pts,
                                             key="batch-1")
                replay = await client.request("publish_batch", points=pts,
                                              key="batch-1")
                assert replay["idempotent_replay"] is True
                assert replay["matched"] == first["matched"]
                stats = await client.stats()
                assert stats["published"] == 8  # applied exactly once
        asyncio.run(with_daemon(problem, body))

    def test_publish_batch_validation_errors(self, problem):
        async def body(daemon):
            client = await ServeClient.connect("127.0.0.1", daemon.port)
            async with client:
                with pytest.raises(ServeError):
                    await client.request("publish_batch", points="nope")
                with pytest.raises(ServeError):
                    await client.request("publish_batch", points=[[]])
                with pytest.raises(ServeError):
                    await client.request("publish_batch",
                                         points=[[1.0, 2.0]],
                                         eventIds=[1, 2])
                with pytest.raises(ServeError):
                    await client.request("publish_batch",
                                         points=[[1.0, 2.0]],
                                         sentAt="late")
                # The connection survives every rejection.
                assert (await client.ping())["pong"] is True
        asyncio.run(with_daemon(problem, body))

    def test_pump_microbatch_preserves_full_stream(self, problem):
        # Many events for one subscriber queued at once: the pump must
        # deliver all of them, in order, with contiguous seq numbers.
        async def body(daemon):
            client = await ServeClient.connect("127.0.0.1", daemon.port)
            async with client:
                await client.subscribe(3)
                sub = problem.subscriptions.take(np.array([3]))
                inside = list((sub.lo[0] + sub.hi[0]) / 2.0)
                n = 300  # several _PUMP_BATCH windows
                await client.publish_batch([inside] * n,
                                           event_ids=list(range(n)))
                mine = []
                while len(mine) < n:
                    event = await asyncio.wait_for(client.events.get(), 5.0)
                    if event["subscriber"] == 3:
                        mine.append(event)
                assert [e["eventId"] for e in mine] == list(range(n))
                assert [e["seq"] for e in mine] == list(range(n))
        asyncio.run(with_daemon(problem, body))
