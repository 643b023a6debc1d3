"""Wire protocol of the live pub/sub service: newline-delimited JSON.

Every message — request, reply, or server-pushed event — is one JSON
object per line, UTF-8 encoded.  Requests carry an ``op`` plus its
fields; mutating ops (``subscribe`` / ``unsubscribe`` / ``publish``)
may carry an idempotency ``key``: the gateway caches the first response
per key and replays it verbatim for duplicates, so a client retrying
over a flaky connection cannot double-apply a mutation.  Replies echo
the request's correlation ``id`` so one connection can pipeline
requests; pushed events are distinguished by ``"type": "event"``.

The protocol is intentionally tiny: six ops, two error shapes, one
frame format.  Validation failures never kill the connection — the
gateway answers with an error reply and keeps reading, because the
newline framing stays in sync even after a garbage line.

``publish_batch`` is the batched twin of ``publish``: one frame carries
an event *column* (a list of points) that the broker routes and matches
with one matrix step, returning the aggregate counts.

Delivery frames are built from two parts so that an event fanned out to
many subscribers is serialized once: :func:`event_tail` encodes the
subscriber-independent end (``point``, ``sentAt``, ``eventId``) and
:func:`event_frame` prefixes one subscriber's ``subscriber``/``seq``.
The result is byte-identical to ``encode_frame(event_message(...))``.
"""

from __future__ import annotations

import asyncio
import json
import math
from typing import Any

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "MUTATING_OPS",
    "ALL_OPS",
    "ERR_BAD_JSON",
    "ERR_UNKNOWN_OP",
    "ERR_INVALID",
    "ProtocolError",
    "encode_frame",
    "decode_frame",
    "read_frame",
    "write_frame",
    "write_frames",
    "reply",
    "error_reply",
    "event_message",
    "event_tail",
    "event_frame",
]

PROTOCOL_VERSION = 1

#: Hard cap on one frame's length (the stream reader's ``limit``
#: enforces it); a longer line gets one ``invalid-request`` reply and
#: the connection is closed.
MAX_FRAME_BYTES = 1 << 20

#: Ops that change broker state and therefore honour idempotency keys.
MUTATING_OPS = frozenset({"subscribe", "unsubscribe", "publish",
                          "publish_batch"})

#: Every op the gateway understands.
ALL_OPS = MUTATING_OPS | {"stats", "ping"}

ERR_BAD_JSON = "bad-json"          #: the line was not a JSON object
ERR_UNKNOWN_OP = "unknown-op"      #: ``op`` is not one of ALL_OPS
ERR_INVALID = "invalid-request"    #: a field is missing or mistyped


class ProtocolError(ValueError):
    """A malformed frame or request, tagged with its error code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def encode_frame(payload: dict[str, Any]) -> bytes:
    """Serialize one message to its wire form (compact JSON + newline)."""
    return json.dumps(payload, separators=(",", ":")).encode() + b"\n"


def _reject_constant(name: str) -> Any:
    raise ValueError(f"non-standard JSON constant {name}")


def _finite_float(literal: str) -> float:
    value = float(literal)
    if not math.isfinite(value):
        raise ValueError(f"number {literal[:32]} overflows to {value}")
    return value


#: Strict JSON: ``NaN``/``Infinity``/``-Infinity`` are not JSON, and a
#: frame carrying one would be echoed to subscribers verbatim.  A number
#: literal such as ``1e999`` that overflows a float would become one.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant,
                            parse_float=_finite_float)


def decode_frame(line: bytes) -> dict[str, Any]:
    """Parse one wire line into a message dict.

    Raises :class:`ProtocolError` (``bad-json``) when the line is not
    valid JSON (including the non-standard ``NaN`` and ``Infinity``
    constants and number literals that overflow a float) or not a JSON
    object.
    """
    try:
        payload = _DECODER.decode(line.decode("utf-8", errors="strict"))
    except ValueError as exc:  # also bad UTF-8 and over-long integers
        raise ProtocolError(ERR_BAD_JSON, f"undecodable frame: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(ERR_BAD_JSON, "frame must be a JSON object")
    return payload


async def read_frame(reader: asyncio.StreamReader) -> dict[str, Any] | None:
    """Read one message; ``None`` on a clean EOF.

    Propagates :class:`ProtocolError` on garbage (the caller answers
    with an error reply and keeps the connection).
    """
    line = await reader.readline()
    if not line:
        return None
    return decode_frame(line)


async def write_frame(writer: asyncio.StreamWriter,
                      payload: dict[str, Any]) -> None:
    writer.write(encode_frame(payload))
    await writer.drain()


async def write_frames(writer: asyncio.StreamWriter,
                       frames: list[bytes]) -> None:
    """Write a run of encoded frames in one write with one flush."""
    writer.write(b"".join(frames))
    await writer.drain()


def reply(request: dict[str, Any], **fields: Any) -> dict[str, Any]:
    """A success reply echoing the request's correlation id."""
    message: dict[str, Any] = {"type": "reply", "ok": True}
    if "id" in request:
        message["id"] = request["id"]
    message.update(fields)
    return message


def error_reply(request: dict[str, Any], code: str,
                message: str) -> dict[str, Any]:
    """An error reply echoing the request's correlation id."""
    out: dict[str, Any] = {"type": "reply", "ok": False,
                           "error": code, "message": message}
    if isinstance(request, dict) and "id" in request:
        out["id"] = request["id"]
    return out


def event_message(subscriber: int, seq: int, point: list[float],
                  sent_at: float | None,
                  event_id: Any = None) -> dict[str, Any]:
    """A server-pushed delivery frame for one subscriber."""
    message: dict[str, Any] = {"type": "event", "subscriber": subscriber,
                               "seq": seq, "point": point}
    if sent_at is not None:
        message["sentAt"] = sent_at
    if event_id is not None:
        message["eventId"] = event_id
    return message


def event_tail(point: list[float], sent_at: float | None,
               event_id: Any = None) -> bytes:
    """The subscriber-independent end of an event frame, newline included.

    ``event_frame(j, seq, event_tail(point, sent_at, event_id))`` equals
    ``encode_frame(event_message(j, seq, point, sent_at, event_id))``.
    """
    fields: dict[str, Any] = {"point": point}
    if sent_at is not None:
        fields["sentAt"] = sent_at
    if event_id is not None:
        fields["eventId"] = event_id
    # Drop the opening brace: the prefix of event_frame supplies it.
    return encode_frame(fields)[1:]


def event_frame(subscriber: int, seq: int, tail: bytes) -> bytes:
    """One subscriber's delivery frame around a shared :func:`event_tail`."""
    return b'{"type":"event","subscriber":%d,"seq":%d,' % (subscriber,
                                                           seq) + tail
