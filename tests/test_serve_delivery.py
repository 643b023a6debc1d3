"""The serve delivery path: shared-tail frames and the per-connection pump.

An event fanned out to many subscribers is serialized once
(:func:`~repro.serve.protocol.event_tail`) and each delivery frame is a
short per-subscriber prefix around that tail; the frame must be
byte-identical to encoding the full event message.  Each connection owns
one pump task that drains all of its subscribers' queues, numbering
every subscriber's ``seq`` from 0 in event order.
"""

import asyncio
import json
from collections import defaultdict

import numpy as np
import pytest

from repro.serve import ServeClient, ServeConfig, ServeDaemon, protocol
from repro.serve.broker import Publication
from repro.serve.gateway import _PUMP_BATCH, _Connection
from repro.workloads import GridConfig, generate_grid, one_level_problem

POINTS = [[0.1, 2.0], [-0.0, 1e-300], [3, -7], [1e308, 0.30000000000000004],
          [5e-324, -123456.789]]
EVENT_IDS = [None, 0, 17, -3, 2**70, "ev-1", "événement", "☃\n\"q\"",
             [1, "a"], {"k": "v"}]
SENT_ATS = [None, 0, 1.5, 1e-300, 1760000000.123456]


class TestFrameIdentity:
    @pytest.mark.parametrize("point", POINTS)
    @pytest.mark.parametrize("event_id", EVENT_IDS)
    @pytest.mark.parametrize("sent_at", SENT_ATS)
    def test_shared_tail_frame_equals_full_encoding(self, point, event_id,
                                                    sent_at):
        tail = protocol.event_tail(point, sent_at, event_id)
        for subscriber, seq in ((0, 0), (7, 1), (999, 123456)):
            assert protocol.event_frame(subscriber, seq, tail) == \
                protocol.encode_frame(protocol.event_message(
                    subscriber, seq, point, sent_at, event_id))

    @pytest.mark.parametrize("point", POINTS)
    def test_publication_tail_matches_float_coordinates(self, point):
        # The broker queues numpy rows; the frame carries their floats.
        row = np.asarray(point, dtype=float)
        event = Publication(row, 2.5, "é")
        expected = protocol.encode_frame(protocol.event_message(
            4, 9, [float(x) for x in row], 2.5, "é"))
        assert protocol.event_frame(4, 9, event.tail()) == expected
        assert event.tail() is event.tail()  # encoded once

    def test_frame_decodes_to_the_message(self):
        tail = protocol.event_tail([0.25, -1.0], 3.0, "x")
        frame = protocol.event_frame(12, 5, tail)
        assert frame.endswith(b"\n") and frame.count(b"\n") == 1
        assert protocol.decode_frame(frame) == protocol.event_message(
            12, 5, [0.25, -1.0], 3.0, "x")


@pytest.fixture(scope="module")
def problem():
    workload = generate_grid(11, GridConfig(num_subscribers=240,
                                            num_brokers=6))
    return one_level_problem(workload)


def event_points(problem, n, seed, inside):
    """``n`` uniform points, the first ``inside`` of them moved to the
    centre of subscriber 0's box."""
    rng = np.random.default_rng(seed)
    subs = problem.subscriptions
    pts = rng.uniform(subs.lo.min(0), subs.hi.max(0),
                      size=(n, problem.event_dim))
    pts[:inside] = (subs.lo[0] + subs.hi[0]) / 2.0
    return pts


def pump_tasks():
    return [t for t in asyncio.all_tasks()
            if t.get_coro().__qualname__ == "_Connection.deliver"]


class TestConnectionPump:
    def test_one_pump_delivers_every_event_once_in_order(self, problem):
        members = list(range(200))
        # Subscriber 0's queue holds more than two pump rounds.
        pts = event_points(problem, 3 * _PUMP_BATCH, seed=1,
                           inside=2 * _PUMP_BATCH + 1)

        async def body():
            daemon = ServeDaemon(problem, ServeConfig(
                port=0, reopt_threshold=10**9))
            await daemon.start()
            try:
                client = await ServeClient.connect("127.0.0.1", daemon.port)
                async with client:
                    for j in members:
                        await client.subscribe(j)
                    assert len(daemon._connections) == 1
                    [conn] = daemon._connections
                    assert pump_tasks() == [conn.pump]

                    reply = await client.publish_batch(
                        pts.tolist(), event_ids=list(range(len(pts))))
                    expected = int(daemon.broker.deliveries.sum())
                    assert reply["delivered"] == expected > 2 * _PUMP_BATCH
                    got = [await asyncio.wait_for(client.events.get(), 5.0)
                           for _ in range(expected)]
                    assert (await client.ping())["pong"] is True
                    assert client.events.empty()  # nothing sent twice
                    assert pump_tasks() == [conn.pump]
                    return got, daemon.broker.deliveries.copy()
            finally:
                await daemon.stop()

        got, deliveries = asyncio.run(body())
        by_sub = defaultdict(list)
        for event in got:
            by_sub[event["subscriber"]].append(event)
        assert set(by_sub) <= set(members)
        for j in members:
            mine = by_sub.get(j, [])
            assert len(mine) == deliveries[j]
            assert [e["seq"] for e in mine] == list(range(len(mine)))
            ids = [e["eventId"] for e in mine]
            assert ids == sorted(set(ids))  # event order, no duplicates
        assert len(by_sub[0]) >= 2 * _PUMP_BATCH

    def test_resubscribe_restarts_seq_and_sheds_queued_events(self, problem):
        members = list(range(200))
        j = 0
        first = event_points(problem, _PUMP_BATCH, seed=2, inside=16)
        second = event_points(problem, _PUMP_BATCH, seed=3, inside=16)

        class RecordingWriter:
            def __init__(self):
                self.data = bytearray()

            def write(self, data):
                self.data += data

            async def drain(self):
                pass

        async def request(daemon, conn, **fields):
            response = await daemon._dispatch(fields, conn)
            assert response["ok"], response
            return response

        async def body():
            daemon = ServeDaemon(problem, ServeConfig(
                port=0, reopt_threshold=10**9))
            writer = RecordingWriter()
            conn = _Connection(writer, 0)
            try:
                for m in members:
                    await request(daemon, conn, op="subscribe", subscriber=m)
                await request(daemon, conn, op="publish_batch",
                              points=first.tolist(),
                              eventIds=list(range(len(first))))
                # The pump has not run: the first batch is still queued.
                assert daemon.broker.queue(j)
                assert not writer.data
                await request(daemon, conn, op="unsubscribe", subscriber=j)
                await request(daemon, conn, op="subscribe", subscriber=j)
                await request(daemon, conn, op="publish_batch",
                              points=second.tolist(),
                              eventIds=[len(first) + i
                                        for i in range(len(second))])
                for _ in range(100):
                    await asyncio.sleep(0)
                frames = [json.loads(line)
                          for line in bytes(writer.data).splitlines()]
                return (frames, daemon.broker.deliveries.copy(),
                        daemon.broker.queue(j).enqueued)
            finally:
                conn.pump.cancel()

        frames, deliveries, second_life = asyncio.run(body())
        by_sub = defaultdict(list)
        for frame in frames:
            by_sub[frame["subscriber"]].append(frame)
        mine = by_sub[j]
        # Only the second life's events: seq restarts at 0, and nothing
        # queued before the unsubscribe went out.
        assert len(mine) == second_life >= 16
        assert all(e["eventId"] >= len(first) for e in mine)
        assert deliveries[j] == second_life + 16  # 16 shed with the queue
        for k, events in by_sub.items():
            assert [e["seq"] for e in events] == list(range(len(events)))
            if k != j:
                assert len(events) == deliveries[k]
