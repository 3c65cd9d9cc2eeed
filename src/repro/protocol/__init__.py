"""Transport-agnostic market-protocol core of the QA-NT reproduction.

The paper's market is a conversation: bid requests fan out, quotes and
refusals come back, assignments are confirmed, period ticks resettle
prices.  This package makes that conversation explicit and pluggable —
typed frozen messages with a versioned JSON codec (:mod:`~repro.protocol
.messages`), a :class:`Transport` seam (:mod:`~repro.protocol.transport`)
and the :class:`MarketSession` negotiation state machine (:mod:`~repro
.protocol.session`), which the Section 5.2 SQLite federation
(:mod:`repro.dbms`) runs over real messages.

Standard library only, fully typed (``mypy --strict`` in CI), and free of
``repro.core`` / ``repro.sim`` imports by design: a live broker daemon
must be able to depend on this package alone (a server that carries a
pricing agent, like the SQLite node, lives with its substrate).
"""

from .messages import (
    PROTOCOL_VERSION,
    AssignQuery,
    BidBatch,
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
from .session import (
    MarketSession,
    NegotiationOutcome,
    NegotiationPolicy,
    SessionState,
)
from .transport import (
    MAX_FRAME_BYTES,
    FanoutResult,
    FrameDecoder,
    Transport,
    encode_frame,
)

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
    "FanoutResult",
    "FrameDecoder",
    "MAX_FRAME_BYTES",
    "Transport",
    "encode_frame",
    "MarketSession",
    "NegotiationPolicy",
    "NegotiationOutcome",
    "SessionState",
]
