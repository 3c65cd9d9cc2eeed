"""What the market's exchanges leave on the wire: framing and charges.

Two things live here.  The length-prefix framing (:func:`encode_frame` /
:class:`FrameDecoder`) of the sharded engine's socket wire: a 4-byte
big-endian length, then one payload (the sharded engine's is a JSON
header and raw attachments).  And :class:`FanoutResult`, the simulator's charge record of
one request/reply fan-out, which ``repro.sim.network.Network.fanout``
returns without building payloads:

* ``delivered`` — peers whose *request* arrived.  Server-side effects
  (QA-NT's refusal price dynamics) happen for these even when the client
  never hears back — the stale-price regime partitioned markets exhibit;
* ``replied`` — the subset whose reply the client received within the
  bid timeout; only these can win the allocation;
* ``delay_ms`` — the slowest in-time round trip, or the full timeout
  when any peer stayed silent (the client waited it out);
* ``messages`` — legs actually put on the wire (a severed or dropped
  request produces no reply leg).

:class:`FanoutResult` lives in this stdlib-only package, not in
``repro.sim``, because ``repro.allocation`` reads it and importing the
simulator there would close a package cycle.  The SQLite federation
(``repro.dbms``) moves real messages and needs neither: its client
hands each node the codec's payload itself.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Tuple

__all__ = [
    "FanoutResult",
    "FrameDecoder",
    "encode_frame",
    "frame_header",
]


#: Length-prefix header of one wire frame: 4-byte unsigned big-endian.
_FRAME_HEADER = struct.Struct(">I")

#: Ceiling on a single frame's payload (64 MiB).  A length prefix above
#: this is a corrupt or hostile stream, not a real market frame — the
#: decoder raises instead of buffering unbounded garbage.
MAX_FRAME_BYTES = 64 * 1024 * 1024


def frame_header(length: int) -> bytes:
    """The length prefix of a ``length``-byte payload: a writer that
    sends it and then the payload, in as many pieces as it likes, puts
    :func:`encode_frame`'s bytes on the wire without joining them."""
    if length > MAX_FRAME_BYTES:
        raise ValueError(
            "frame payload of %d bytes exceeds MAX_FRAME_BYTES" % length
        )
    return _FRAME_HEADER.pack(length)


def encode_frame(payload: bytes) -> bytes:
    """Wrap one payload in the transport's length-prefix framing.

    The socket-backed shard transport (``repro.sim.shards.ShardTransport``
    ``mode="tcp"``) moves payloads over a byte stream; this 4-byte
    big-endian length prefix (:func:`frame_header`) is the only thing the
    wire adds — the payload itself is the codec's business.
    """
    return frame_header(len(payload)) + payload


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
        """Absorb ``data``; return every frame completed by it, in order.

        Each frame is copied once, out of a view of the buffer that is
        released before the buffer drops the frames' bytes."""
        self._buffer.extend(data)
        frames: List[bytes] = []
        offset = 0
        size = len(self._buffer)
        with memoryview(self._buffer) as view:
            while size - offset >= _FRAME_HEADER.size:
                (length,) = _FRAME_HEADER.unpack_from(view, offset)
                if length > MAX_FRAME_BYTES:
                    raise ValueError(
                        "frame length %d exceeds MAX_FRAME_BYTES" % length
                    )
                if size - offset - _FRAME_HEADER.size < length:
                    break
                start = offset + _FRAME_HEADER.size
                frames.append(view[start : start + length].tobytes())
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

    @property
    def silent(self) -> bool:
        """True when no reply beat the timeout (total silence)."""
        return not self.replied
