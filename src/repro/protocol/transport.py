"""The transport seam of the market protocol.

A :class:`Transport` moves protocol messages between a client and a set of
server peers; everything above it (:class:`~repro.protocol.session
.MarketSession`) is transport-agnostic.  Its backend is
``repro.dbms.InProcessTransport``: synchronous delivery to the SQLite
nodes of the Section 5.2 federation, every leg encoded and decoded.  The
discrete-event simulator does not move messages: its allocators call
``repro.sim.network.Network.fanout``, which *charges* an exchange
(latency model, message counting, fault injection) and returns the same
:class:`FanoutResult` without building payloads.

The verb is :meth:`Transport.fanout`, whose :class:`FanoutResult` lifts
the semantics the simulator's faulty fan-out always had into a typed,
documented contract:

* ``delivered`` — peers whose *request* arrived.  Server-side effects
  (QA-NT's refusal price dynamics) happen for these even when the client
  never hears back — the stale-price regime partitioned markets exhibit;
* ``replied`` — the subset whose reply the client received within the
  bid timeout; only these can win the allocation;
* ``delay_ms`` — the slowest in-time round trip, or the full timeout
  when any peer stayed silent (the client waited it out);
* ``messages`` — legs actually put on the wire (a severed or dropped
  request produces no reply leg);
* ``replies`` — the reply payloads themselves, in ``replied`` order, for
  transports that materialise message bodies (the simulator charges the
  exchange without building payloads, so it leaves this empty).

The module also holds the length-prefix framing
(:func:`encode_frame` / :class:`FrameDecoder`) of the sharded engine's
socket wire.  ``repro.sim.shards.ShardTransport`` is not a
:class:`Transport`: it moves whole-period frames to shard workers
(``post`` / ``exchange``), never a per-query fan-out.
"""

from __future__ import annotations

import abc
import struct
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .messages import Message

__all__ = [
    "FanoutResult",
    "FrameDecoder",
    "Transport",
    "encode_frame",
]


#: Length-prefix header of one wire frame: 4-byte unsigned big-endian.
_FRAME_HEADER = struct.Struct(">I")

#: Ceiling on a single frame's payload (64 MiB).  A length prefix above
#: this is a corrupt or hostile stream, not a real market frame — the
#: decoder raises instead of buffering unbounded garbage.
MAX_FRAME_BYTES = 64 * 1024 * 1024


def encode_frame(payload: bytes) -> bytes:
    """Wrap one codec payload in the transport's length-prefix framing.

    The socket-backed shard transport (``repro.sim.shards.ShardTransport``
    ``mode="tcp"``) moves :func:`repro.protocol.messages.encode` payloads
    over a byte stream; this 4-byte big-endian length prefix is the only
    thing the wire adds — the payload itself is the codec's business.
    """
    if len(payload) > MAX_FRAME_BYTES:
        raise ValueError(
            "frame payload of %d bytes exceeds MAX_FRAME_BYTES" % len(payload)
        )
    return _FRAME_HEADER.pack(len(payload)) + payload


class FrameDecoder:
    """Incremental decoder of the length-prefixed frame stream.

    Feed it byte chunks exactly as they arrive from a socket — partial
    headers, partial payloads, several frames per chunk, anything — and
    it yields complete payloads in stream order.  Purely computational
    (no I/O), so both the coordinator and the shard workers drive the
    identical reassembly logic and unit tests can exercise every split
    point without a socket.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[bytes]:
        """Absorb ``data``; return every frame completed by it, in order."""
        self._buffer.extend(data)
        frames: List[bytes] = []
        offset = 0
        size = len(self._buffer)
        while size - offset >= _FRAME_HEADER.size:
            (length,) = _FRAME_HEADER.unpack_from(self._buffer, offset)
            if length > MAX_FRAME_BYTES:
                raise ValueError(
                    "frame length %d exceeds MAX_FRAME_BYTES" % length
                )
            if size - offset - _FRAME_HEADER.size < length:
                break
            start = offset + _FRAME_HEADER.size
            frames.append(bytes(self._buffer[start : start + length]))
            offset = start + length
        if offset:
            del self._buffer[:offset]
        return frames

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered towards the next (incomplete) frame."""
        return len(self._buffer)


@dataclass(frozen=True)
class FanoutResult:
    """Outcome of one request/reply fan-out exchange (see module docs)."""

    delay_ms: float
    messages: int
    delivered: Tuple[int, ...]
    replied: Tuple[int, ...]
    replies: Tuple[Message, ...] = field(default=())

    @property
    def silent(self) -> bool:
        """True when no reply beat the timeout (total silence)."""
        return not self.replied


class Transport(abc.ABC):
    """Moves one client's protocol messages to a set of server peers."""

    @abc.abstractmethod
    def fanout(
        self,
        origin: int,
        peers: Sequence[int],
        request: Optional[Message] = None,
    ) -> FanoutResult:
        """Send ``request`` from ``origin`` to every peer; gather replies.

        ``request`` may be ``None`` for transports that only *charge* the
        exchange (message counts and latency, not payload bytes); live
        transports require a real message and raise
        :class:`~repro.protocol.messages.ProtocolError` without one.
        """

    def close(self) -> None:
        """Release transport resources; the default is a no-op."""
        return None
