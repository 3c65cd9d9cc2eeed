"""Typed market-protocol messages and their versioned JSON codec.

The QA-NT market is, at heart, a message protocol: a client fans a
:class:`BidRequest` out to the candidate servers, each server answers with
a :class:`Quote` (an offer) or a :class:`Refusal` (a trading failure that
moved its private prices), the client dispatches an :class:`AssignQuery`
to the winner, and a :class:`PeriodTick` resettles every agent's prices and supply at
each period boundary.  Here they are first-class, frozen and
serialisable: the Section 5.2 SQLite federation (``repro.dbms``) speaks
this conversation through the codec, leg by leg.  The discrete-event
simulator speaks none of it; it charges each exchange instead
(:class:`~repro.protocol.transport.FanoutResult`), and the sharded
engine's frames carry plain columns.

The codec is deliberately boring: one JSON envelope
``{"v": <version>, "type": <tag>, "body": {...}}`` per message.  Decoding
is tolerant of *unknown body fields* (a newer peer may add fields; an
older one must not choke on them) but strict about the protocol version
and the message type — the two things that define the conversation.

This package is intentionally dependency-free (standard library only) and
fully typed: it must be importable by a process that speaks only the
wire and has no business importing the simulator, and it is
type-checked with ``mypy --strict`` in CI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import FrozenSet, Mapping, Tuple, Union

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "BidRequest",
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
PROTOCOL_VERSION = 2


class ProtocolError(ValueError):
    """A payload that does not parse as a valid protocol message."""


# -- messages ------------------------------------------------------------------


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


Message = Union[BidRequest, Quote, Refusal, AssignQuery, PeriodTick]

#: Wire tag → message class, the decoder's dispatch table.
MESSAGE_TYPES: Mapping[str, type] = {
    "bid_request": BidRequest,
    "quote": Quote,
    "refusal": Refusal,
    "assign_query": AssignQuery,
    "period_tick": PeriodTick,
}

_TAGS: Mapping[type, str] = {cls: tag for tag, cls in MESSAGE_TYPES.items()}

#: Field-name → expected JSON shape, shared across every message type
#: (all are flat records over these names).
_INT_FIELDS = frozenset(
    {"qid", "class_index", "origin_node", "attempt", "node_id", "period_index"}
)
_FLOAT_FIELDS = frozenset(
    {"estimated_completion_ms", "period_ms"}
)

#: Per-class field tables, computed once at import: ``dataclasses.fields``
#: walks the class dict on every call.
_FIELD_NAMES: Mapping[type, Tuple[str, ...]] = {
    cls: tuple(f.name for f in fields(cls)) for cls in MESSAGE_TYPES.values()
}
_KNOWN_FIELDS: Mapping[type, FrozenSet[str]] = {
    cls: frozenset(names) for cls, names in _FIELD_NAMES.items()
}
_INT_CHECKS: Mapping[type, Tuple[str, ...]] = {
    cls: tuple(n for n in names if n in _INT_FIELDS)
    for cls, names in _FIELD_NAMES.items()
}
_FLOAT_CHECKS: Mapping[type, Tuple[str, ...]] = {
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


def encode(message: Message) -> str:
    """Serialise one message to its versioned JSON envelope.

    Non-finite floats are rejected (``allow_nan=False``): NaN/Infinity
    are not valid JSON and would not survive a standards-compliant peer.
    Keys are sorted so equal messages always encode to equal bytes.
    """
    envelope = {
        "v": PROTOCOL_VERSION,
        "type": message_tag(message),
        "body": {
            name: getattr(message, name) for name in _FIELD_NAMES[type(message)]
        },
    }
    try:
        return json.dumps(
            envelope, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
    except ValueError as exc:
        raise ProtocolError("unencodable message: %s" % exc) from exc


def _refuse_constant(literal: str) -> float:
    raise ProtocolError("%s is not a JSON number" % literal)


#: The envelope parser: the JSON literals ``NaN``, ``Infinity`` and
#: ``-Infinity``, which Python's parser takes by default, are refused, as
#: :func:`encode` refuses the values they stand for.
_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


def decode(payload: str) -> Message:
    """Parse one JSON envelope back into its typed message.

    Raises :class:`ProtocolError` on malformed JSON (the non-standard
    ``NaN`` / ``Infinity`` literals included), a missing or unsupported
    version, an unknown message type, or missing required fields.
    Unknown *body* fields are silently dropped — the forward tolerance
    that lets an old peer read a newer peer's messages.
    """
    try:
        envelope = _DECODER.decode(payload)
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

