"""Typed market-protocol messages and their versioned JSON codec.

The QA-NT market is, at heart, a message protocol: a client fans a
:class:`BidRequest` out to the candidate servers, each server answers with
a :class:`Quote` (an offer) or a :class:`Refusal` (a trading failure that
moved its private prices), the client dispatches an :class:`AssignQuery`
to the winner, and a :class:`PeriodTick` resettles every agent's prices and supply at
each period boundary.  Until this module existed those messages were
implicit — smeared across allocator tuple returns and network fan-out
unpacking.  Here they are first-class, frozen, and serialisable, so the
discrete-event simulator and live (asyncio / future HTTP) brokers can
speak the exact same conversation.

The codec is deliberately boring: one JSON envelope
``{"v": <version>, "type": <tag>, "body": {...}}`` per message.  Decoding
is tolerant of *unknown body fields* (a newer peer may add fields; an
older one must not choke on them) but strict about the protocol version
and the message type — the two things that define the conversation.

This package is intentionally dependency-free (standard library only) and
fully typed: it must be importable by a broker daemon that has no
business importing the simulator, and it is type-checked with
``mypy --strict`` in CI.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import Any, Dict, Mapping, Sequence, Union

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "BidRequest",
    "BidBatch",
    "Quote",
    "Refusal",
    "AssignQuery",
    "PeriodTick",
    "Message",
    "MESSAGE_TYPES",
    "message_tag",
    "encode",
    "decode",
]

#: Version of the wire envelope.  Bump only on incompatible changes; the
#: decoder refuses every version it was not built for (version pinning),
#: while *within* a version unknown body fields are ignored (forward
#: tolerance).
PROTOCOL_VERSION = 1


class ProtocolError(ValueError):
    """A payload that does not parse as a valid protocol message."""


@dataclass(frozen=True)
class BidRequest:
    """Client → all candidate servers: request for bids on one query.

    ``attempt`` counts resubmissions of the same query (0 on first
    submission) so servers and traces can distinguish retry pressure from
    fresh demand.
    """

    qid: int
    class_index: int
    origin_node: int
    attempt: int = 0


@dataclass(frozen=True)
class BidBatch:
    """Client → one shard's servers: many first-submission bid requests.

    The only non-flat message: four equal-length columns, row *i* being
    ``BidRequest(qids[i], class_indices[i], origin_nodes[i])`` posed at
    ``times_ms[i]`` — *n* rows are *n* protocol-level bids in one
    envelope.  Rows keep their send order; rows sharing a timestamp form
    one market tick.  :func:`decode` returns the columns as tuples.
    """

    times_ms: Sequence[float]
    qids: Sequence[int]
    class_indices: Sequence[int]
    origin_nodes: Sequence[int]


@dataclass(frozen=True)
class Quote:
    """Server → client: an offer to evaluate the query.

    ``estimated_completion_ms`` is the server's estimate of when the
    query would finish if assigned now (queue backlog plus execution
    time); the client picks the earliest.  Prices are deliberately absent
    — they are private to each server and never travel on the wire.
    """

    qid: int
    node_id: int
    class_index: int
    estimated_completion_ms: float


@dataclass(frozen=True)
class Refusal:
    """Server → client: no remaining supply for this class.

    A refusal is a *trading failure*: the server has already raised the
    class price by the time this message is sent.  The client treats it
    identically to silence when choosing a winner, but the distinction
    matters for accounting (a refusal was delivered; silence was not).
    """

    qid: int
    node_id: int
    class_index: int


@dataclass(frozen=True)
class AssignQuery:
    """Client → winning server: commit the query to the chosen node."""

    qid: int
    node_id: int
    class_index: int


@dataclass(frozen=True)
class PeriodTick:
    """Market-wide period boundary (the paper's ``T``): agents lower the
    prices of unsold supply and re-solve eq. 4 for the new period."""

    period_index: int
    period_ms: float


Message = Union[BidRequest, BidBatch, Quote, Refusal, AssignQuery, PeriodTick]

#: Wire tag → message class, the decoder's dispatch table.
MESSAGE_TYPES: Mapping[str, type] = {
    "bid_request": BidRequest,
    "bid_batch": BidBatch,
    "quote": Quote,
    "refusal": Refusal,
    "assign_query": AssignQuery,
    "period_tick": PeriodTick,
}

_TAGS: Mapping[type, str] = {cls: tag for tag, cls in MESSAGE_TYPES.items()}

#: Field-name → expected JSON shape, shared across every message type
#: (flat records over these names; :class:`BidBatch` alone carries
#: columns, checked by :func:`_checked_batch`).
_INT_FIELDS = frozenset(
    {"qid", "class_index", "origin_node", "attempt", "node_id", "period_index"}
)
_FLOAT_FIELDS = frozenset(
    {"estimated_completion_ms", "period_ms"}
)

#: Per-class field tables, computed once at import.  ``dataclasses.fields``
#: walks the class dict on every call — hoisting it off the per-message
#: encode/decode path matters at batched-bidding volumes (the sharded
#: federation moves thousands of quotes per run through this codec).
_FIELD_NAMES: Mapping[type, tuple] = {
    cls: tuple(f.name for f in fields(cls)) for cls in MESSAGE_TYPES.values()
}
_KNOWN_FIELDS: Mapping[type, frozenset] = {
    cls: frozenset(names) for cls, names in _FIELD_NAMES.items()
}
_INT_CHECKS: Mapping[type, tuple] = {
    cls: tuple(n for n in names if n in _INT_FIELDS)
    for cls, names in _FIELD_NAMES.items()
}
_FLOAT_CHECKS: Mapping[type, tuple] = {
    cls: tuple(n for n in names if n in _FLOAT_FIELDS)
    for cls, names in _FIELD_NAMES.items()
}


def message_tag(message: Message) -> str:
    """The wire tag of ``message`` (e.g. ``"bid_request"``)."""
    tag = _TAGS.get(type(message))
    if tag is None:
        raise ProtocolError(
            "object of type %r is not a protocol message" % type(message).__name__
        )
    return tag


def _body(message: Message) -> Dict[str, Any]:
    """The message's fields as a plain dict: scalars, or for
    :class:`BidBatch` its four columns (JSON arrays on the wire)."""
    return {name: getattr(message, name) for name in _FIELD_NAMES[type(message)]}


def encode(message: Message) -> str:
    """Serialise one message to its versioned JSON envelope.

    Non-finite floats are rejected (``allow_nan=False``): NaN/Infinity
    are not valid JSON and would not survive a standards-compliant peer.
    Keys are sorted so equal messages always encode to equal bytes.
    """
    envelope = {
        "v": PROTOCOL_VERSION,
        "type": message_tag(message),
        "body": _body(message),
    }
    try:
        return json.dumps(
            envelope, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
    except ValueError as exc:
        raise ProtocolError("unencodable message: %s" % exc) from exc


def decode(payload: str) -> Message:
    """Parse one JSON envelope back into its typed message.

    Raises :class:`ProtocolError` on malformed JSON, a missing or
    unsupported version, an unknown message type, or missing required
    fields.  Unknown *body* fields are silently dropped — the forward
    tolerance that lets an old peer read a newer peer's messages.
    """
    try:
        envelope = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise ProtocolError("payload is not valid JSON: %s" % exc) from exc
    if not isinstance(envelope, dict):
        raise ProtocolError("envelope must be a JSON object")
    version = envelope.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            "unsupported protocol version %r (this peer speaks %d)"
            % (version, PROTOCOL_VERSION)
        )
    tag = envelope.get("type")
    cls = MESSAGE_TYPES.get(tag) if isinstance(tag, str) else None
    if cls is None:
        raise ProtocolError("unknown message type %r" % tag)
    body = envelope.get("body")
    if not isinstance(body, dict):
        raise ProtocolError("message body must be a JSON object")
    known = _KNOWN_FIELDS[cls]
    kwargs = {key: value for key, value in body.items() if key in known}
    try:
        message = cls(**kwargs)
    except TypeError as exc:
        raise ProtocolError(
            "body of %r is missing required fields: %s" % (tag, exc)
        ) from exc
    return _checked(message)


def _checked(message: Message) -> Message:
    """Validate decoded field types (JSON carries no schema of its own)."""
    if isinstance(message, BidBatch):
        return _checked_batch(message)
    cls = type(message)
    for name in _INT_CHECKS[cls]:
        value = getattr(message, name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ProtocolError(
                "field %r must be an integer, got %r" % (name, value)
            )
    for name in _FLOAT_CHECKS[cls]:
        value = getattr(message, name)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ProtocolError(
                "field %r must be a number, got %r" % (name, value)
            )
    return message


def _checked_batch(batch: BidBatch) -> BidBatch:
    """Validate a decoded :class:`BidBatch` and freeze its columns:
    JSON arrays of one length, integers only (``bool`` is not one) in
    the integer columns, finite numbers as times (``json.loads`` accepts
    ``NaN``/``Infinity``; a market clock must not)."""
    names = _FIELD_NAMES[BidBatch]
    columns = [getattr(batch, name) for name in names]
    for name, column in zip(names, columns):
        if not isinstance(column, list):
            raise ProtocolError("field %r must be an array" % name)
        if len(column) != len(columns[0]):
            raise ProtocolError(
                "column %r has %d rows, %r has %d"
                % (name, len(column), names[0], len(columns[0]))
            )
        kinds = set(map(type, column))
        if name != "times_ms":
            if not kinds <= {int}:
                raise ProtocolError("column %r must hold integers" % name)
            continue
        try:
            finite = kinds <= {int, float} and all(map(math.isfinite, column))
        except OverflowError:  # an integer beyond the float range
            finite = False
        if not finite:
            raise ProtocolError("column %r must hold finite numbers" % name)
    return BidBatch(*map(tuple, columns))
