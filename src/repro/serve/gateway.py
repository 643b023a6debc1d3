"""The JSON-over-TCP gateway: asyncio streams front-end of the broker.

``ServeDaemon`` binds a listening socket and speaks the newline-delimited
JSON protocol of :mod:`repro.serve.protocol`.  Each connection may issue
any mix of ops; a connection that subscribes becomes the delivery
channel for those subscribers.  A connection answers every frame of one
read in one pass, in order, and writes the pass's replies at once.
Consecutive key-less publishes in that pass are routed as one block,
each still answered with its own counts; every other frame is
dispatched on its own, in its place.  Every connection also owns one
*pump* task.  An offer into an empty subscriber queue marks that
subscriber ready on its connection and wakes the pump, which drains
every ready queue (up to ``_PUMP_BATCH`` events each per round) and
sends the round's frames in one socket write.  Each event is serialized
once, however many subscribers receive it; a frame is that shared tail
behind a short per-subscriber prefix.  A slow client stalls only its
own pump, and its bounded queues shed the overflow (queue drops)
without stalling anyone else.

Mutating requests honour idempotency keys: the first response for a key
is cached and replayed verbatim for duplicates, so retries cannot
double-subscribe or double-publish.  Validation failures (bad JSON,
unknown op, missing fields) get an error reply and the connection
lives on.  A disconnecting client's subscribers are auto-unsubscribed —
dropped connections are churn, which is exactly what feeds the
background :class:`~repro.serve.reoptimizer.Reoptimizer`.
"""

from __future__ import annotations

import asyncio
import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core.problem import SAProblem
from ..perf import fastlp
from . import protocol
from .broker import DeliveryQueue, LiveBroker
from .reoptimizer import LP_ALGORITHMS, Reoptimizer, ReoptimizerConfig

__all__ = ["ServeConfig", "ServeDaemon"]

#: Idempotency responses remembered per daemon before the oldest expire.
_IDEMPOTENCY_CACHE_SIZE = 65536

#: Ops that take the churn lock (a tuple: a frame's ``op`` may be any
#: JSON value, hashable or not).
_CHURN_OPS = ("subscribe", "unsubscribe")

#: Events a pump takes from one subscriber's queue per round, so a deep
#: queue cannot hold back the connection's other subscribers.
_PUMP_BATCH = 64


@dataclass(frozen=True)
class ServeConfig:
    """Network and behaviour knobs of the daemon."""

    host: str = "127.0.0.1"
    port: int = 0                    #: 0 = ephemeral; see ``ServeDaemon.port``
    queue_capacity: int = 1024       #: per-subscriber delivery queue depth
    seed: int = 0                    #: online-greedy manager seed
    reopt_threshold: int = 64        #: churn events triggering re-optimization
    reopt_poll_interval: float = 0.25
    reopt_algorithm: str = "SLP1"

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be at least 1")


class _Connection:
    """Per-connection state: owned subscribers and their delivery pump."""

    __slots__ = ("writer", "write_lock", "subscribers", "conn_id", "ready",
                 "wake", "pump")

    def __init__(self, writer: asyncio.StreamWriter, conn_id: int):
        self.writer = writer
        self.write_lock = asyncio.Lock()
        self.subscribers: set[int] = set()
        #: Namespaces this connection's idempotency keys: two clients
        #: reusing the same key string must never see each other's
        #: cached responses.
        self.conn_id = conn_id
        #: Subscriber queues holding events the pump has not taken yet.
        self.ready: dict[int, DeliveryQueue] = {}
        self.wake = asyncio.Event()
        self.pump = asyncio.get_running_loop().create_task(self.deliver())

    def mark_ready(self, queue: DeliveryQueue) -> None:
        """The ``on_ready`` hook of every queue this connection owns."""
        self.ready[queue.subscriber] = queue
        self.wake.set()

    async def deliver(self) -> None:
        """The pump: drain the ready queues into the writer, round by round.

        A round swaps out the ready set, takes up to ``_PUMP_BATCH``
        events from each queue in it, numbers them with that
        subscriber's ``seq`` and sends every frame in one write.  A
        queue with events left over goes back into the ready set.
        """
        try:
            while True:
                await self.wake.wait()
                self.wake.clear()
                ready, self.ready = self.ready, {}
                frames = []
                for j, queue in ready.items():
                    seq = queue.taken
                    for event in queue.take(_PUMP_BATCH):
                        frames.append(protocol.event_frame(j, seq,
                                                           event.tail()))
                        seq += 1
                    if queue:
                        self.ready[j] = queue
                if self.ready:
                    self.wake.set()
                if frames:
                    async with self.write_lock:
                        await protocol.write_frames(self.writer, frames)
        except (ConnectionResetError, BrokenPipeError):
            pass


class ServeDaemon:
    """A live pub/sub broker daemon over one SA problem instance."""

    def __init__(self, problem: SAProblem,
                 config: ServeConfig | None = None):
        self.config = config or ServeConfig()
        self.broker = LiveBroker(problem,
                                 queue_capacity=self.config.queue_capacity,
                                 seed=self.config.seed)
        #: Serializes churn (subscribe/unsubscribe) against the
        #: thread-offloaded re-optimization.
        self.churn_lock = asyncio.Lock()
        self.reoptimizer = Reoptimizer(
            self.broker,
            ReoptimizerConfig(churn_threshold=self.config.reopt_threshold,
                              poll_interval=self.config.reopt_poll_interval,
                              algorithm=self.config.reopt_algorithm,
                              seed=self.config.seed),
            churn_lock=self.churn_lock)
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[_Connection] = set()
        #: The connection handler tasks (see :meth:`_accept`).
        self._handlers: set[asyncio.Task] = set()
        #: Keyed by ``(conn_id, key)``: idempotency replay is scoped to
        #: the connection that issued the key, so one client's key can
        #: never replay another client's cached response (and a
        #: reconnect starts a fresh namespace).
        self._idempotency: OrderedDict[tuple[int, str],
                                       dict[str, Any]] = OrderedDict()
        self._next_conn_id = 0
        self.requests = 0
        self.request_errors = 0

    # -- lifecycle -----------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (resolves port 0 to the ephemeral choice)."""
        if self._server is None:
            raise RuntimeError("daemon is not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        if self.config.reopt_algorithm in LP_ALGORITHMS:
            # Import scipy now, off the loop: the first re-optimization
            # holds churn_lock, and every churn op would wait out the
            # import behind it.
            await asyncio.to_thread(fastlp.load_backend)
        self._server = await asyncio.start_server(
            self._accept, self.config.host, self.config.port,
            limit=protocol.MAX_FRAME_BYTES)
        self.reoptimizer.start()

    async def stop(self) -> None:
        """Stop accepting and the reoptimizer, then drop every connection.

        Every listed connection's subscribers are unsubscribed here,
        including those of a teardown still queued on ``churn_lock``.
        Each socket is then aborted, not closed: a client that has
        stopped reading would never let a close drain.  Its handler,
        left with nothing to do, is cancelled and awaited, so nothing
        is left for the loop's shutdown to cancel.
        """
        await self.reoptimizer.stop()
        if self._server is None:
            return
        self._server.close()
        for conn in list(self._connections):
            # No lock needed: the reoptimizer has stopped, and nothing
            # else can run on the loop meanwhile.
            self._drop_subscribers(conn)
            conn.writer.transport.abort()
        handlers = list(self._handlers)
        for handler in handlers:
            handler.cancel()
        await asyncio.gather(*handlers, return_exceptions=True)
        # Last: from Python 3.12.1 on, this waits for every connection.
        await self._server.wait_closed()
        self._server = None

    async def run(self, run_for: float | None = None) -> None:
        """Serve until cancelled (or for ``run_for`` seconds), then stop."""
        assert self._server is not None, "call start() first"
        try:
            if run_for is None:
                await self._server.serve_forever()
            else:
                await asyncio.sleep(run_for)
        except asyncio.CancelledError:
            pass
        finally:
            await self.stop()

    # -- connection handling -------------------------------------------------

    def _accept(self, reader: asyncio.StreamReader,
                writer: asyncio.StreamWriter) -> None:
        # A plain callback starting the handler task itself: stop()
        # cancels handlers, and on Python 3.11 a cancelled handler that
        # start_server launched is reported as an unhandled error.
        handler = asyncio.get_running_loop().create_task(
            self._handle_connection(reader, writer))
        self._handlers.add(handler)
        handler.add_done_callback(self._handlers.discard)

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        conn = _Connection(writer, self._next_conn_id)
        self._next_conn_id += 1
        self._connections.add(conn)
        frames = protocol.FrameReader(reader)
        try:
            while not frames.done:
                replies = await self._answer(await frames.read(), conn)
                if frames.overrun:
                    # Framing is lost: answer once, counted, then drop
                    # the link.
                    self.request_errors += 1
                    replies.append(protocol.encode_frame(protocol.error_reply(
                        {}, protocol.ERR_INVALID,
                        f"frame exceeds {protocol.MAX_FRAME_BYTES} bytes")))
                if replies:
                    await self._send(conn, replies)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            # Listed until torn down, so stop() still closes a socket
            # whose teardown is waiting for churn_lock.
            try:
                await self._teardown(conn)
            finally:
                self._connections.discard(conn)

    async def _answer(self, lines: list[bytes],
                      conn: _Connection) -> list[bytes]:
        """Answer one read turn's frames, in order; the encoded replies.

        Consecutive key-less publishes form a run, answered by
        :meth:`_publish_run` when any other frame or the end of the turn
        closes it.  Every other frame is dispatched on its own, in its
        place.
        """
        replies: list[bytes] = []
        run: list[dict[str, Any]] = []
        for line in lines:
            try:
                request = protocol.decode_frame(line)
            except protocol.ProtocolError as exc:
                self.request_errors += 1
                response = protocol.error_reply({}, exc.code, str(exc))
            else:
                if (request.get("op") == "publish"
                        and request.get("key") is None):
                    run.append(request)
                    continue
                response = None
            replies += await self._publish_run(run, conn)
            run = []
            if response is None:
                if (replies and self.churn_lock.locked()
                        and request.get("op") in _CHURN_OPS):
                    # The op waits for the lock: earlier replies go now.
                    await self._send(conn, replies)
                    replies = []
                response = await self._dispatch(request, conn)
            replies.append(protocol.encode_frame(response))
        return replies + await self._publish_run(run, conn)

    def _plain_point(self, request: dict[str, Any]) -> np.ndarray | None:
        """The event of a publish that passes validation, else None."""
        try:
            _sent_at(request)
            return self.broker.event_point(_publish_point(request))
        except ValueError:
            return None

    async def _publish_run(self, run: list[dict[str, Any]],
                           conn: _Connection) -> list[bytes]:
        """Answer a run of key-less publishes, in order; their replies.

        A run of two or more that all pass validation is routed as one
        block, each frame still answered with its own counts.  Otherwise
        each frame is dispatched on its own, so an invalid one gets its
        error reply in its place.  That includes a lone frame, which
        ``LiveBroker.publish`` thus still times in perfbench's per-layer
        trace, until that trace wraps ``publish_block`` (ROADMAP item 7).
        """
        if len(run) > 1:
            points = [self._plain_point(request) for request in run]
            if all(point is not None for point in points):
                self.requests += len(run)
                counts = self.broker.publish_block(
                    points, [request.get("sentAt") for request in run],
                    [request.get("eventId") for request in run])
                return [protocol.encode_frame(protocol.reply(request, **c))
                        for request, c in zip(run, counts)]
        return [protocol.encode_frame(await self._dispatch(request, conn))
                for request in run]

    async def _send(self, conn: _Connection, frames: list[bytes]) -> None:
        async with conn.write_lock:
            await protocol.write_frames(conn.writer, frames)

    async def _teardown(self, conn: _Connection) -> None:
        """Auto-unsubscribe a closing connection's subscribers (churn)."""
        conn.pump.cancel()
        if conn.subscribers:
            async with self.churn_lock:
                self._drop_subscribers(conn)
        try:
            conn.writer.close()
            await conn.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    def _drop_subscribers(self, conn: _Connection) -> None:
        for j in list(conn.subscribers):
            try:
                self.broker.unsubscribe(j)
            except ValueError:
                pass  # already gone via an explicit unsubscribe race
        conn.subscribers.clear()

    # -- request dispatch ----------------------------------------------------

    async def _dispatch(self, request: dict[str, Any],
                        conn: _Connection) -> dict[str, Any]:
        self.requests += 1
        op = request.get("op")
        if not isinstance(op, str) or op not in protocol.ALL_OPS:
            self.request_errors += 1
            return protocol.error_reply(
                request, protocol.ERR_UNKNOWN_OP,
                f"unknown op {op!r}; expected one of "
                f"{sorted(protocol.ALL_OPS)}")

        key = request.get("key")
        if key is not None and op in protocol.MUTATING_OPS:
            if not isinstance(key, str):
                self.request_errors += 1
                return protocol.error_reply(
                    request, protocol.ERR_INVALID,
                    "idempotency key must be a string")
            cached = self._idempotency.get((conn.conn_id, key))
            if cached is not None:
                response = dict(cached)
                response["idempotent_replay"] = True
                if "id" in request:
                    response["id"] = request["id"]
                else:
                    response.pop("id", None)
                return response

        try:
            response = await self._apply(op, request, conn)
        except (ValueError, protocol.ProtocolError) as exc:
            self.request_errors += 1
            code = getattr(exc, "code", protocol.ERR_INVALID)
            response = protocol.error_reply(request, code, str(exc))

        if key is not None and op in protocol.MUTATING_OPS \
                and response.get("ok"):
            self._idempotency[(conn.conn_id, key)] = response
            while len(self._idempotency) > _IDEMPOTENCY_CACHE_SIZE:
                self._idempotency.popitem(last=False)
        return response

    async def _apply(self, op: str, request: dict[str, Any],
                     conn: _Connection) -> dict[str, Any]:
        if op == "ping":
            return protocol.reply(request, pong=True,
                                  protocol=protocol.PROTOCOL_VERSION)
        if op == "stats":
            return protocol.reply(request, stats=self.stats())
        if op == "subscribe":
            j = _field(request, "subscriber")
            # The connection bookkeeping must be atomic with the broker
            # mutation: releasing the lock first would open a window where
            # a concurrent teardown misses the new subscriber and leaks it.
            async with self.churn_lock:
                leaf = self.broker.subscribe(j)
                conn.subscribers.add(j)
                self.broker.queue(j).bind(conn.mark_ready)
            return protocol.reply(request, subscriber=j, leaf=leaf,
                                  routing_version=self.broker.routing.version)
        if op == "unsubscribe":
            j = _field(request, "subscriber")
            async with self.churn_lock:
                self.broker.unsubscribe(j)
                conn.subscribers.discard(j)
            return protocol.reply(request, subscriber=j)
        sent_at = _sent_at(request)
        if op == "publish_batch":
            points = _field(request, "points")
            if not isinstance(points, (list, tuple)) or not all(
                    isinstance(p, (list, tuple)) for p in points):
                raise protocol.ProtocolError(
                    protocol.ERR_INVALID,
                    "publish_batch points must be a list of number lists")
            event_ids = request.get("eventIds")
            if event_ids is not None and (
                    not isinstance(event_ids, (list, tuple))
                    or len(event_ids) != len(points)):
                raise protocol.ProtocolError(
                    protocol.ERR_INVALID,
                    "eventIds must be a list with one entry per point")
            summary = self.broker.publish_batch(
                points, sent_at=sent_at,
                event_ids=list(event_ids) if event_ids is not None else None)
            return protocol.reply(request, **summary)
        summary = self.broker.publish(_publish_point(request),
                                      sent_at=sent_at,
                                      event_id=request.get("eventId"))
        return protocol.reply(request, **summary)

    # -- stats ---------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        payload = dict(self.broker.stats())
        payload.update(self.reoptimizer.stats())
        payload["connections"] = len(self._connections)
        payload["requests"] = self.requests
        payload["request_errors"] = self.request_errors
        return payload


def _is_finite_number(value: Any) -> bool:
    """A JSON number: an ``int`` that is not a ``bool``, or a finite float."""
    if isinstance(value, bool):
        return False
    if isinstance(value, int):
        return True
    return isinstance(value, float) and math.isfinite(value)


def _sent_at(request: dict[str, Any]) -> Any:
    """A publish's optional ``sentAt``, which must be a finite number."""
    sent_at = request.get("sentAt")
    if sent_at is not None and not _is_finite_number(sent_at):
        raise protocol.ProtocolError(
            protocol.ERR_INVALID, "sentAt must be a finite number")
    return sent_at


def _publish_point(request: dict[str, Any]) -> list[Any] | tuple[Any, ...]:
    """A ``publish`` frame's ``point``, which must be a list."""
    point = _field(request, "point")
    if not isinstance(point, (list, tuple)):
        raise protocol.ProtocolError(
            protocol.ERR_INVALID, "publish point must be a number list")
    return point


def _field(request: dict[str, Any], name: str) -> Any:
    try:
        return request[name]
    except KeyError:
        raise protocol.ProtocolError(
            protocol.ERR_INVALID,
            f"op {request.get('op')!r} requires field {name!r}") from None
