"""Pipelined frames get what the same frames sent one at a time get.

The gateway answers every frame already read in one pass and routes
consecutive key-less publishes as one block.  A generated frame
sequence is written to a fresh daemon twice: once as a single write,
once frame by frame with each reply awaited.  Both runs must give the
same replies in the same order (so the same per-frame counts), the same
per-subscriber deliveries with the same ``seq`` numbers, and the same
``stats``.

Two quantities depend on when the delivery pump runs rather than on
routing, so they are compared as what they are:

* ``queue_depth_peak`` is a high-water mark of the queues: a pump that
  runs between frames keeps them shorter.  It is left out of the
  compared ``stats``.
* An unsubscribe sheds what the pump has not yet written.  Within one
  subscription (subscribe to unsubscribe) the events written are
  therefore a prefix of the accepted ones, and the two runs' lists must
  be prefixes of one another; a subscription still open at the end must
  match exactly.  For the same reason ``shed_on_unsubscribe``, the count
  of those shed events, is left out of the compared ``stats``.

The framing cases check the read turn at its edges: complete frames
followed by an oversized one in the same write, and frames split across
writes.
"""

import asyncio
import json
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import ServeConfig, ServeDaemon
from repro.serve.protocol import (ERR_INVALID, ERR_UNKNOWN_OP, MAX_FRAME_BYTES,
                                  FrameReader)
from repro.workloads import GridConfig, generate_grid, one_level_problem

NUM_SUBSCRIBERS = 12
TIMEOUT_S = 10.0


@pytest.fixture(scope="module")
def problem():
    workload = generate_grid(
        4, GridConfig(num_subscribers=NUM_SUBSCRIBERS, num_brokers=4))
    return one_level_problem(workload)


def centres(problem):
    subs = problem.subscriptions
    return [((subs.lo[j] + subs.hi[j]) / 2).tolist()
            for j in range(NUM_SUBSCRIBERS)]


def line(frame):
    return json.dumps(frame).encode() + b"\n"


# -- the generated sequence ---------------------------------------------------

subscriber = st.integers(0, NUM_SUBSCRIBERS - 1)
key = st.sampled_from([None, "a", "b"])   # repeats make duplicate keys
coordinate = st.floats(0.0, 100.0)


@st.composite
def frames(draw, points):
    """A frame sequence; valid publishes carry unique event ids."""
    point = st.one_of(st.sampled_from(points),
                      st.lists(coordinate, min_size=2, max_size=2))
    bad_point = st.sampled_from([[1.0], "x", [1.0, None], []])
    kinds = st.sampled_from(["publish", "publish", "publish", "publish",
                             "bad_publish", "publish_batch", "subscribe",
                             "subscribe", "unsubscribe", "stats",
                             "garbage"])
    out = []
    for i, kind in enumerate(draw(st.lists(kinds, min_size=1,
                                           max_size=24))):
        frame = {"id": i}
        if kind == "publish":
            frame.update(op="publish", point=draw(point), eventId=f"e{i}")
            if draw(st.booleans()):
                frame["sentAt"] = float(i)
            if (k := draw(key)) is not None:
                frame["key"] = k
        elif kind == "bad_publish":
            frame.update(op="publish", eventId=f"e{i}")
            if draw(st.booleans()):
                frame["point"] = draw(bad_point)
            else:
                frame.update(point=draw(point), sentAt=True)
        elif kind == "publish_batch":
            batch = draw(st.lists(point, max_size=3))
            frame.update(op="publish_batch", points=batch,
                         eventIds=[f"e{i}.{k}" for k in range(len(batch))])
            if (k := draw(key)) is not None:
                frame["key"] = k
        elif kind in ("subscribe", "unsubscribe"):
            frame.update(op=kind, subscriber=draw(subscriber))
        elif kind == "stats":
            frame["op"] = "stats"
        out.append(b"{garbage\n" if kind == "garbage" else line(frame))
    return out


# -- running a sequence -------------------------------------------------------


async def run_sequence(problem, lines, pipelined):
    """Replies, delivery frames by subscriber, and the final stats."""
    daemon = ServeDaemon(problem, ServeConfig(port=0,
                                              reopt_threshold=10**9))
    await daemon.start()
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1",
                                                       daemon.port)
        replies = []
        events = defaultdict(list)

        async def read_replies(count):
            while count:
                message = json.loads(await asyncio.wait_for(
                    reader.readline(), TIMEOUT_S))
                if message["type"] == "event":
                    events[message["subscriber"]].append(message)
                else:
                    replies.append(message)
                    count -= 1

        if pipelined:
            writer.write(b"".join(lines))
            await writer.drain()
            await read_replies(len(lines))
        else:
            for frame in lines:
                writer.write(frame)
                await writer.drain()
                await read_replies(1)
        # Once every queue is empty the pump has taken all it will
        # write, and the pong comes back behind those frames.
        while any(len(daemon.broker.queue(j))
                  for conn in daemon._connections for j in conn.subscribers):
            await asyncio.sleep(0.005)
        writer.write(line({"op": "ping", "id": "last"}))
        await writer.drain()
        await read_replies(1)
        replies.pop()
        stats = daemon.stats()
        writer.close()
        await writer.wait_closed()
    finally:
        await daemon.stop()
    return replies, events, stats


def without_pump_timing(stats):
    return {k: v for k, v in stats.items()
            if k not in ("queue_depth_peak", "shed_on_unsubscribe")}


def comparable(reply):
    if "stats" in reply:
        reply = dict(reply, stats=without_pump_timing(reply["stats"]))
    return reply


def subscriptions(lines, replies):
    """Per subscriber, its subscriptions as (start, end) frame indices;
    ``end`` is None for one still open."""
    spans = defaultdict(list)
    for i, (frame, reply) in enumerate(zip(lines, replies)):
        if not reply["ok"] or frame.startswith(b"{garbage"):
            continue
        request = json.loads(frame)
        if request["op"] == "subscribe":
            spans[request["subscriber"]].append([i, None])
        elif request["op"] == "unsubscribe":
            spans[request["subscriber"]][-1][1] = i
    return spans


def frame_of(event):
    return int(event["eventId"][1:].split(".")[0])


def delivered_in(events, start, end):
    return [(e["seq"], e["eventId"], e["point"]) for e in events
            if start < frame_of(e) and (end is None or frame_of(e) < end)]


class TestPipelinedMatchesSequential:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_same_replies_deliveries_and_stats(self, problem, data):
        lines = data.draw(frames(centres(problem)))
        piped = asyncio.run(run_sequence(problem, lines, pipelined=True))
        one_by_one = asyncio.run(run_sequence(problem, lines,
                                              pipelined=False))
        (replies, events, stats), (replies1, events1, stats1) = \
            piped, one_by_one

        assert [comparable(r) for r in replies] == \
            [comparable(r) for r in replies1]
        assert without_pump_timing(stats) == without_pump_timing(stats1)
        for j, spans in subscriptions(lines, replies).items():
            for start, end in spans:
                got = delivered_in(events[j], start, end)
                got1 = delivered_in(events1[j], start, end)
                for run in (got, got1):
                    assert [seq for seq, _, _ in run] == list(range(len(run)))
                if end is None:
                    assert got == got1
                else:
                    shorter = min(len(got), len(got1))
                    assert got[:shorter] == got1[:shorter]
        for j in set(events) | set(events1):
            assert j in subscriptions(lines, replies)


# -- framing ------------------------------------------------------------------


async def connect(daemon):
    return await asyncio.open_connection("127.0.0.1", daemon.port)


async def read_all(reader):
    messages = []
    while raw := await asyncio.wait_for(reader.readline(), TIMEOUT_S):
        messages.append(json.loads(raw))
    return messages


def with_daemon(problem, body):
    async def run():
        daemon = ServeDaemon(problem, ServeConfig(port=0,
                                                  reopt_threshold=10**9))
        await daemon.start()
        try:
            return await body(daemon)
        finally:
            await daemon.stop()

    return asyncio.run(run())


class TestReadTurnFraming:
    def test_complete_frames_answered_before_the_oversized_one(
            self, problem):
        inside = centres(problem)[0]

        async def body(daemon):
            reader, writer = await connect(daemon)
            # Exactly one byte over the cap and no newline: the daemon
            # reads all of it before it gives up, so its close is clean.
            writer.write(line({"op": "subscribe", "subscriber": 0, "id": 1})
                         + line({"op": "publish", "point": inside,
                                 "eventId": "e", "id": 2})
                         + line({"op": "ping", "id": 3})
                         + b"x" * (MAX_FRAME_BYTES + 1))
            await writer.drain()
            messages = await read_all(reader)
            writer.close()
            await writer.wait_closed()
            return messages, daemon.stats()

        messages, stats = with_daemon(problem, body)
        replies = [m for m in messages if m["type"] == "reply"]
        assert [r.get("id") for r in replies] == [1, 2, 3, None]
        assert all(r["ok"] for r in replies[:3])
        assert replies[1]["delivered"] >= 1
        assert replies[3]["ok"] is False
        assert replies[3]["error"] == ERR_INVALID
        assert str(MAX_FRAME_BYTES) in replies[3]["message"]
        assert stats["request_errors"] == 1
        assert stats["published"] == 1

    def test_replies_before_a_churn_op_do_not_wait_for_its_lock(self,
                                                                problem):
        inside = centres(problem)[0]

        async def body(daemon):
            reader, writer = await connect(daemon)

            async def reply():
                return json.loads(await asyncio.wait_for(reader.readline(),
                                                         TIMEOUT_S))

            # Held as a re-optimization would hold it.
            async with daemon.churn_lock:
                writer.write(line({"op": "ping", "id": 1})
                             + line({"op": "publish", "point": inside,
                                     "id": 2})
                             + line({"op": "subscribe", "subscriber": 0,
                                     "id": 3}))
                await writer.drain()
                before = [await reply(), await reply()]
            after = await reply()
            writer.close()
            await writer.wait_closed()
            return before, after

        before, after = with_daemon(problem, body)
        assert [r["id"] for r in before] == [1, 2]
        assert after["id"] == 3 and after["ok"]

    def test_unhashable_op_while_the_lock_is_held(self, problem):
        async def body(daemon):
            reader, writer = await connect(daemon)
            async with daemon.churn_lock:
                writer.write(line({"op": "ping", "id": 1})
                             + line({"op": ["subscribe"], "id": 2}))
                await writer.drain()
                replies = [json.loads(await asyncio.wait_for(
                    reader.readline(), TIMEOUT_S)) for _ in range(2)]
            writer.close()
            await writer.wait_closed()
            return replies

        ping, bad = with_daemon(problem, body)
        assert ping["id"] == 1 and ping["ok"]
        assert bad["id"] == 2 and bad["error"] == ERR_UNKNOWN_OP

    @pytest.mark.parametrize("cut", [1, 10, -1])
    def test_frame_split_across_writes(self, problem, cut):
        inside = centres(problem)[0]
        first = line({"op": "subscribe", "subscriber": 0, "id": 1})
        second = line({"op": "publish", "point": inside, "eventId": "e",
                       "id": 2})

        async def body(daemon):
            reader, writer = await connect(daemon)
            data = first + second
            cut_at = len(first) + (cut % len(second))
            writer.write(data[:cut_at])
            await writer.drain()
            reply = json.loads(await asyncio.wait_for(reader.readline(),
                                                      TIMEOUT_S))
            assert reply["id"] == 1 and reply["ok"]
            await asyncio.sleep(0.05)  # the daemon reads the partial frame
            writer.write(data[cut_at:])
            await writer.drain()
            writer.write_eof()
            messages = await read_all(reader)
            writer.close()
            await writer.wait_closed()
            return messages

        messages = with_daemon(problem, body)
        [reply] = [m for m in messages if m["type"] == "reply"]
        assert reply["id"] == 2 and reply["ok"]
        assert reply["delivered"] >= 1
        events = [m for m in messages if m["type"] == "event"]
        assert [(e["subscriber"], e["seq"], e["eventId"]) for e in events] \
            == [(0, 0, "e")]


async def all_reads(data):
    """Every read of a :class:`FrameReader` over ``data``, then EOF."""
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    frames = FrameReader(reader)
    reads = []
    while not frames.done:
        reads.append(await frames.read())
    return reads, frames.overrun


class TestFrameReader:
    def test_one_read_returns_every_complete_line(self):
        reads, overrun = asyncio.run(all_reads(b"a\nbb\n\nc\n"))
        assert reads == [[b"a", b"bb", b"", b"c"], []]
        assert not overrun

    def test_truncated_last_line_is_its_own_frame(self):
        reads, overrun = asyncio.run(all_reads(b"a\n{\"op\":"))
        assert reads == [[b"a"], [b'{"op":']]
        assert not overrun

    def test_partial_lines_wait_for_their_newline(self):
        async def body():
            reader = asyncio.StreamReader()
            frames = FrameReader(reader)
            reader.feed_data(b"ab")
            pending = asyncio.ensure_future(frames.read())
            await asyncio.sleep(0)
            assert not pending.done()
            reader.feed_data(b"c\nd")
            assert await pending == [b"abc"]
            reader.feed_eof()
            assert await frames.read() == [b"d"]
            assert frames.done and await frames.read() == []

        asyncio.run(body())

    def test_line_at_the_cap_is_a_frame(self):
        data = b"y" * MAX_FRAME_BYTES + b"\nz\n"
        reads, overrun = asyncio.run(all_reads(data))
        assert [len(f) for r in reads for f in r] == [MAX_FRAME_BYTES, 1]
        assert not overrun

    @pytest.mark.parametrize("newline", [b"\n", b""])
    def test_longer_line_overruns_after_the_frames_before_it(self,
                                                             newline):
        data = b"a\nb\n" + b"y" * (MAX_FRAME_BYTES + 1) + newline + b"c\n"
        reads, overrun = asyncio.run(all_reads(data))
        assert [f for r in reads for f in r] == [b"a", b"b"]
        assert overrun
