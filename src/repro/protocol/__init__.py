"""The wire of the QA-NT reproduction: what crosses a process boundary.

The paper's market is a conversation: bid requests fan out, quotes and
refusals come back, assignments are confirmed, period ticks resettle
prices.  This package holds what carries it: typed frozen messages with
a versioned JSON codec (:mod:`~repro.protocol.messages`), the
length-prefix framing of the sharded engine's socket wire, and
:class:`FanoutResult`, the simulator's charge record of one fan-out
(:mod:`~repro.protocol.transport`).  The one client that speaks the
conversation is the Section 5.2 SQLite federation
(:class:`repro.dbms.DbmsFederation`); the sharded engine's socket wire
frames plain columns, as raw attachments after a JSON header
(``repro.sim.shards``).

Standard library only, fully typed (``mypy --strict`` in CI), and free of
``repro.core`` / ``repro.sim`` imports by design: a process that only
speaks the wire must be able to depend on this package alone.
"""

from .messages import (
    PROTOCOL_VERSION,
    AssignQuery,
    BidRequest,
    Message,
    MESSAGE_TYPES,
    PeriodTick,
    ProtocolError,
    Quote,
    Refusal,
    decode,
    encode,
    message_tag,
)
from .transport import (
    MAX_FRAME_BYTES,
    FanoutResult,
    FrameDecoder,
    encode_frame,
)

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
    "FanoutResult",
    "FrameDecoder",
    "MAX_FRAME_BYTES",
    "encode_frame",
]
