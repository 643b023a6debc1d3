"""Gateway tests: protocol validation, idempotency, connection lifecycle.

Each test spins up a real :class:`ServeDaemon` on an ephemeral loopback
port and talks to it over TCP — the same path production clients use.
"""

import asyncio
import json

import pytest

from repro.serve import ServeClient, ServeConfig, ServeDaemon, ServeError
from repro.serve.protocol import (
    ERR_BAD_JSON,
    ERR_INVALID,
    ERR_UNKNOWN_OP,
    MAX_FRAME_BYTES,
    decode_frame,
    encode_frame,
    ProtocolError,
)
from repro.workloads import GridConfig, generate_grid, one_level_problem


@pytest.fixture(scope="module")
def problem():
    workload = generate_grid(3, GridConfig(num_subscribers=60, num_brokers=6))
    return one_level_problem(workload)


def serve_config(**overrides):
    # Ephemeral port; churn threshold high enough that tests control
    # re-optimization explicitly.
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


class TestProtocol:
    def test_frame_round_trip(self):
        frame = encode_frame({"op": "ping", "id": 3})
        assert frame.endswith(b"\n")
        assert decode_frame(frame) == {"op": "ping", "id": 3}

    def test_bad_json_rejected(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_frame(b"{nope\n")
        assert excinfo.value.code == ERR_BAD_JSON

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError):
            decode_frame(b"[1, 2]\n")

    @pytest.mark.parametrize("line", [
        b'{"op":"publish","point":[0.5,0.5],"sentAt":NaN}\n',
        b'{"op":"publish","point":[0.5,0.5],"eventId":Infinity}\n',
        b'{"op":"publish","point":[-Infinity,0.5]}\n',
        b'{"op":"ping","id":' + b"9" * 5000 + b'}\n',
        b'{"op":"publish","point":[1,2],"eventId":1e999}\n',
        b'{"op":"publish","point":[-1e400,2]}\n',
    ], ids=["nan", "infinity", "minus-infinity", "over-long-int",
            "overflow", "minus-overflow"])
    def test_non_standard_json_rejected(self, line):
        with pytest.raises(ProtocolError) as excinfo:
            decode_frame(line)
        assert excinfo.value.code == ERR_BAD_JSON


class TestValidation:
    def test_bad_json_line_gets_error_reply_and_connection_survives(
            self, problem):
        async def body(daemon):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", daemon.port)
            writer.write(b"this is not json\n")
            await writer.drain()
            reply = json.loads(await reader.readline())
            assert reply["ok"] is False
            assert reply["error"] == ERR_BAD_JSON
            # The connection still works afterwards.
            writer.write(encode_frame({"op": "ping", "id": 1}))
            await writer.drain()
            pong = json.loads(await reader.readline())
            assert pong["ok"] and pong["pong"] and pong["id"] == 1
            writer.close()
            await writer.wait_closed()

        asyncio.run(with_daemon(problem, body))

    def test_unknown_op(self, problem):
        async def body(daemon):
            async with await ServeClient.connect(
                    "127.0.0.1", daemon.port) as client:
                with pytest.raises(ServeError) as excinfo:
                    await client.request("frobnicate")
                assert excinfo.value.code == ERR_UNKNOWN_OP

        asyncio.run(with_daemon(problem, body))

    def test_missing_fields_and_bad_types(self, problem):
        async def body(daemon):
            async with await ServeClient.connect(
                    "127.0.0.1", daemon.port) as client:
                for op, fields in [("subscribe", {}),
                                   ("publish", {}),
                                   ("publish", {"point": "oops"}),
                                   ("publish", {"point": [1.0],
                                                "sentAt": "later"}),
                                   ("subscribe", {"subscriber": "zero"}),
                                   ("subscribe", {"subscriber": -1}),
                                   ("subscribe", {"subscriber": 10**6})]:
                    with pytest.raises(ServeError) as excinfo:
                        await client.request(op, **fields)
                    assert excinfo.value.code == ERR_INVALID
                stats = await client.stats()
                assert stats["request_errors"] == 7
                assert stats["active_subscribers"] == 0

        asyncio.run(with_daemon(problem, body))

    def test_non_finite_constants_get_bad_json_and_publish_nothing(
            self, problem):
        async def body(daemon):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", daemon.port)
            writer.write(b'{"op":"publish","point":[0.5,0.5],'
                         b'"sentAt":NaN,"eventId":Infinity}\n')
            await writer.drain()
            reply = json.loads(await reader.readline())
            assert reply["ok"] is False
            assert reply["error"] == ERR_BAD_JSON
            # The connection keeps serving, and nothing was published.
            writer.write(encode_frame({"op": "stats", "id": 2}))
            await writer.drain()
            stats = json.loads(await reader.readline())["stats"]
            assert stats["request_errors"] == 1
            assert stats["published"] == 0
            writer.close()
            await writer.wait_closed()

        asyncio.run(with_daemon(problem, body))

    def test_overflowing_number_gets_bad_json_and_publishes_nothing(
            self, problem):
        async def body(daemon):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", daemon.port)
            writer.write(encode_frame({"op": "subscribe", "id": 1,
                                       "subscriber": 0}))
            writer.write(b'{"op":"publish","point":[1,2],"eventId":1e999}\n')
            await writer.drain()
            assert json.loads(await reader.readline())["ok"] is True
            reply = json.loads(await reader.readline())
            assert reply["ok"] is False
            assert reply["error"] == ERR_BAD_JSON
            # The connection keeps serving, and nothing was published.
            writer.write(encode_frame({"op": "stats", "id": 2}))
            await writer.drain()
            stats = json.loads(await reader.readline())["stats"]
            assert stats["request_errors"] == 1
            assert stats["published"] == 0
            writer.close()
            await writer.wait_closed()

        asyncio.run(with_daemon(problem, body))

    def test_oversized_frame_gets_one_error_and_a_close(self, problem):
        async def body(daemon):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", daemon.port)
            # A well-formed publish, padded past the frame cap.
            padding = b" " * MAX_FRAME_BYTES
            writer.write(b'{"op":"publish","point":[0.5,0.5]' + padding
                         + b"}\n")
            await writer.drain()
            reply = json.loads(await reader.readline())
            assert reply["ok"] is False
            assert reply["error"] == ERR_INVALID
            assert str(MAX_FRAME_BYTES) in reply["message"]
            # Then the daemon closes the link.  Closing a socket whose
            # input was not all read makes the kernel send a reset, so
            # the end may read as EOF or as a reset.
            try:
                assert await reader.read() == b""
            except ConnectionResetError:
                pass
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionResetError:
                pass
            async with await ServeClient.connect(
                    "127.0.0.1", daemon.port) as client:
                stats = await client.stats()
            assert stats["request_errors"] == 1
            assert stats["published"] == 0

        asyncio.run(with_daemon(problem, body))

    def test_truncated_final_frame_gets_bad_json_and_publishes_nothing(
            self, problem):
        async def body(daemon):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", daemon.port)
            writer.write(b'{"op":"publish","point":[1')
            writer.write_eof()
            await writer.drain()
            reply = json.loads(await reader.readline())
            assert reply["ok"] is False
            assert reply["error"] == ERR_BAD_JSON
            assert await reader.read() == b""
            writer.close()
            await writer.wait_closed()
            async with await ServeClient.connect(
                    "127.0.0.1", daemon.port) as client:
                stats = await client.stats()
            assert stats["request_errors"] == 1
            assert stats["published"] == 0

        asyncio.run(with_daemon(problem, body))

    @pytest.mark.parametrize("sent_at", [True, False])
    def test_boolean_sent_at_is_invalid(self, problem, sent_at):
        async def body(daemon):
            async with await ServeClient.connect(
                    "127.0.0.1", daemon.port) as client:
                with pytest.raises(ServeError) as excinfo:
                    await client.request("publish", point=[0.5, 0.5],
                                         sentAt=sent_at)
                assert excinfo.value.code == ERR_INVALID
                stats = await client.stats()
                assert stats["request_errors"] == 1
                assert stats["published"] == 0

        asyncio.run(with_daemon(problem, body))

    def test_wrong_point_dimension(self, problem):
        async def body(daemon):
            async with await ServeClient.connect(
                    "127.0.0.1", daemon.port) as client:
                with pytest.raises(ServeError):
                    await client.publish([0.5])  # domain is 2-d

        asyncio.run(with_daemon(problem, body))


class TestIdempotency:
    def test_duplicate_key_replays_without_reapplying(self, problem):
        async def body(daemon):
            async with await ServeClient.connect(
                    "127.0.0.1", daemon.port) as client:
                first = await client.request("subscribe", subscriber=4,
                                             key="retry-1")
                second = await client.request("subscribe", subscriber=4,
                                              key="retry-1")
                assert second["idempotent_replay"] is True
                assert second["leaf"] == first["leaf"]
                stats = await client.stats()
                assert stats["active_subscribers"] == 1
                assert stats["subscribes"] == 1

        asyncio.run(with_daemon(problem, body))

    def test_duplicate_publish_key_is_not_republished(self, problem):
        async def body(daemon):
            async with await ServeClient.connect(
                    "127.0.0.1", daemon.port) as client:
                point = [0.5, 0.5]
                await client.request("publish", point=point, key="pub-1")
                await client.request("publish", point=point, key="pub-1")
                stats = await client.stats()
                assert stats["published"] == 1

        asyncio.run(with_daemon(problem, body))

    def test_duplicate_subscribe_without_key_errors(self, problem):
        async def body(daemon):
            async with await ServeClient.connect(
                    "127.0.0.1", daemon.port) as client:
                await client.subscribe(2)
                with pytest.raises(ServeError):
                    await client.subscribe(2)

        asyncio.run(with_daemon(problem, body))

    def test_keys_are_scoped_per_connection(self, problem):
        # Two clients reusing the same key string must not collide: the
        # cache is namespaced by connection, so the second client's
        # subscribe is a fresh operation, not a replay of the first's.
        async def body(daemon):
            async with await ServeClient.connect(
                    "127.0.0.1", daemon.port) as alice, \
                    await ServeClient.connect(
                        "127.0.0.1", daemon.port) as bob:
                first = await alice.request("subscribe", subscriber=7,
                                            key="shared-key")
                assert "idempotent_replay" not in first
                second = await bob.request("subscribe", subscriber=8,
                                           key="shared-key")
                assert "idempotent_replay" not in second
                assert second["subscriber"] == 8
                stats = await alice.stats()
                assert stats["active_subscribers"] == 2
                assert stats["subscribes"] == 2
                # Each connection still replays its own key.
                replay = await bob.request("subscribe", subscriber=8,
                                           key="shared-key")
                assert replay["idempotent_replay"] is True

        asyncio.run(with_daemon(problem, body))

    def test_non_string_key_rejected(self, problem):
        async def body(daemon):
            async with await ServeClient.connect(
                    "127.0.0.1", daemon.port) as client:
                with pytest.raises(ServeError) as excinfo:
                    await client.request("subscribe", subscriber=1, key=7)
                assert excinfo.value.code == ERR_INVALID

        asyncio.run(with_daemon(problem, body))


class TestLifecycle:
    def test_disconnect_auto_unsubscribes(self, problem):
        async def body(daemon):
            client = await ServeClient.connect("127.0.0.1", daemon.port)
            await client.subscribe(0)
            await client.subscribe(1)
            await client.close()
            # The daemon notices the drop and departs both subscribers.
            for _ in range(50):
                if daemon.broker.active_count == 0:
                    break
                await asyncio.sleep(0.02)
            assert daemon.broker.active_count == 0
            assert daemon.broker.unsubscribes == 2

        asyncio.run(with_daemon(problem, body))

    def test_stop_closes_a_connection_still_tearing_down(self, problem):
        async def body():
            daemon = ServeDaemon(problem, serve_config())
            await daemon.start()
            client = await ServeClient.connect("127.0.0.1", daemon.port)
            await client.subscribe(0)
            [conn] = daemon._connections
            # Hold churn_lock (as a re-optimization would) so the
            # teardown of the dropped connection cannot finish.
            async with daemon.churn_lock:
                await client.close()
                for _ in range(50):
                    if conn.pump.done():  # teardown has started
                        break
                    await asyncio.sleep(0.02)
                assert conn.pump.done()
                await daemon.stop()
                assert conn.writer.transport.is_closing()

        asyncio.run(body())

    def test_unsubscribe_stops_delivery(self, problem):
        async def body(daemon):
            async with await ServeClient.connect(
                    "127.0.0.1", daemon.port) as client:
                await client.subscribe(0)
                await client.unsubscribe(0)
                lo = problem.subscriptions.lo[0]
                hi = problem.subscriptions.hi[0]
                inside = (lo + hi) / 2.0
                summary = await client.publish(inside)
                assert summary["matched"] == 0

        asyncio.run(with_daemon(problem, body))

    def test_events_are_pushed_to_the_subscribing_connection(self, problem):
        async def body(daemon):
            async with await ServeClient.connect(
                    "127.0.0.1", daemon.port) as client:
                await client.subscribe(0)
                lo = problem.subscriptions.lo[0]
                hi = problem.subscriptions.hi[0]
                inside = ((lo + hi) / 2.0).tolist()
                summary = await client.publish(inside, sent_at=12.5,
                                               event_id="e-1")
                assert summary["delivered"] == 1
                event = await asyncio.wait_for(client.events.get(), 5.0)
                assert event["subscriber"] == 0
                assert event["sentAt"] == 12.5
                assert event["eventId"] == "e-1"
                assert event["point"] == pytest.approx(inside)

        asyncio.run(with_daemon(problem, body))
