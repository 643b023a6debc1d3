"""Property tests for the gateway's request path.

Generated requests — wrong-typed fields, unknown ops, missing fields,
non-string idempotency keys, ragged ``publish_batch`` columns and
non-finite numbers — go straight into ``ServeDaemon._dispatch``.  Every
reply must be a success or a typed error, every error must be counted,
and a rejected request must leave the broker's state untouched.  The
same requests written as wire lines, number literals that overflow a
float included, go through the connection loop, and every line it
writes back must be strict JSON.
"""

import asyncio
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.serve import ServeConfig, ServeDaemon
from repro.serve.gateway import _Connection
from repro.serve.protocol import (ALL_OPS, ERR_BAD_JSON, ERR_INVALID,
                                  ERR_UNKNOWN_OP, decode_frame)
from repro.workloads import GridConfig, generate_grid, one_level_problem

NUM_SUBSCRIBERS = 12
ERROR_CODES = {ERR_BAD_JSON, ERR_UNKNOWN_OP, ERR_INVALID}


@pytest.fixture(scope="module")
def problem():
    workload = generate_grid(
        4, GridConfig(num_subscribers=NUM_SUBSCRIBERS, num_brokers=4))
    return one_level_problem(workload)


class _SinkWriter:
    """Stands in for a connection's stream writer; drops the deliveries."""

    def write(self, data):
        pass

    async def drain(self):
        pass


class _RecordingWriter:
    """A stream writer that keeps what is written to it."""

    def __init__(self):
        self.data = bytearray()

    def write(self, data):
        self.data += data

    async def drain(self):
        await asyncio.sleep(0)  # lets the delivery pump run

    def close(self):
        pass

    async def wait_closed(self):
        pass


#: Number literals that overflow a float.  On the wire each one replaces
#: its marker string (see ``wire_line``).
OVERFLOWS = ("1e999", "-1e400", "2E+308")

#: Values JSON can carry that are not a usable number.
junk = st.sampled_from([None, True, False, 10**400, float("nan"),
                        float("inf"), -float("inf"), "1", {}, [],
                        *(f"<{literal}>" for literal in OVERFLOWS)])

scalars = st.one_of(st.integers(-3, 10**6),
                    st.floats(allow_nan=True, allow_infinity=True),
                    st.text(max_size=4), junk)

coordinate = st.one_of(st.floats(0.0, 100.0), junk)

point = st.one_of(
    st.lists(coordinate, min_size=2, max_size=2),
    st.lists(coordinate, max_size=3),
    scalars)

subscriber = st.one_of(st.integers(-2, NUM_SUBSCRIBERS + 1), scalars)

points = st.one_of(st.lists(point, max_size=4), scalars)

event_ids = st.one_of(st.lists(scalars, max_size=4), scalars)

common = {
    "id": st.one_of(st.integers(), st.text(max_size=4)),
    "key": st.sampled_from(["a", "b", None, 7, True]),
    "sentAt": st.one_of(st.floats(0.0, 1e9), scalars),
    "eventId": scalars,
}


def wire_line(frame):
    """``frame`` as a client writes it, with the overflow markers as raw
    number literals."""
    line = json.dumps(frame)
    for literal in OVERFLOWS:
        line = line.replace(f'"<{literal}>"', literal)
    return line.encode() + b"\n"


def frame(op, required):
    return st.fixed_dictionaries({"op": st.just(op), **required},
                                 optional=common)


# One branch per op with its fields present (so most frames reach field
# validation), plus a free-form branch for unknown ops and missing fields.
requests = st.one_of(
    frame("subscribe", {"subscriber": subscriber}),
    frame("unsubscribe", {"subscriber": subscriber}),
    frame("publish", {"point": point}),
    frame("publish_batch", {"points": points, "eventIds": event_ids}),
    st.fixed_dictionaries({}, optional={
        "op": st.sampled_from(sorted(ALL_OPS) + ["", "frobnicate", None,
                                                 7, ["ping"]]),
        "subscriber": subscriber, "point": point, "points": points,
        "eventIds": event_ids, **common}),
)


class TestDispatchFuzz:
    @settings(max_examples=200, deadline=None)
    @given(frames=st.lists(requests, min_size=1, max_size=8))
    def test_replies_are_ok_or_typed_errors(self, problem, frames):
        async def body():
            daemon = ServeDaemon(problem, ServeConfig(reopt_threshold=10**9))
            conn = _Connection(_SinkWriter(), conn_id=0)
            try:
                for frame in frames:
                    before = daemon.broker.stats()
                    errors = daemon.request_errors
                    reply = await daemon._dispatch(frame, conn)
                    assert reply["type"] == "reply"
                    if reply["ok"]:
                        assert daemon.request_errors == errors
                        continue
                    assert reply["error"] in ERROR_CODES, reply
                    assert isinstance(reply["message"], str)
                    assert daemon.request_errors == errors + 1
                    assert daemon.broker.stats() == before
            finally:
                conn.pump.cancel()
                await asyncio.gather(conn.pump, return_exceptions=True)
            assert daemon.requests == len(frames)

        asyncio.run(body())

    @settings(max_examples=100, deadline=None)
    @given(frames=st.lists(requests, min_size=1, max_size=8))
    # Subscriber 0's box contains this point, so the event is delivered
    # back with its overflowing id.
    @example(frames=[{"op": "publish", "point": [75.0, 75.0],
                      "eventId": "<1e999>"}])
    def test_wire_lines_get_strict_json_back(self, problem, frames):
        async def body():
            daemon = ServeDaemon(problem, ServeConfig(reopt_threshold=10**9))
            # The whole population subscribes first, so publishes that
            # pass validation are delivered back on this connection.
            lines = [wire_line({"op": "subscribe", "subscriber": j})
                     for j in range(NUM_SUBSCRIBERS)]
            lines += [wire_line(f) for f in frames]
            # A closing ping gives the delivery pump its turn to write
            # before the connection ends.
            lines.append(wire_line({"op": "ping"}))
            reader = asyncio.StreamReader()
            reader.feed_data(b"".join(lines))
            reader.feed_eof()
            writer = _RecordingWriter()
            await daemon._handle_connection(reader, writer)
            # decode_frame is strict: no NaN or Infinity may come back.
            written = [decode_frame(line)
                       for line in bytes(writer.data).splitlines()]
            replies = [m for m in written if m["type"] == "reply"]
            assert len(replies) == len(lines)
            errors = [r["error"] for r in replies if not r["ok"]]
            assert set(errors) <= ERROR_CODES
            assert daemon.request_errors == len(errors)

        asyncio.run(body())
