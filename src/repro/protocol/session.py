"""The client's side of the market negotiation, independent of any transport.

One :meth:`MarketSession.negotiate_once` round is the conversation the
paper's client performs for a query (Section 3.3), over whatever
:class:`~repro.protocol.transport.Transport` moves the messages: fan a
:class:`~repro.protocol.messages.BidRequest` out, collect the
:class:`~repro.protocol.messages.Quote` replies, pick the winner by the
paper's rule (earliest estimated completion, ties to the lowest node id)
and send it an :class:`~repro.protocol.messages.AssignQuery`; the ack
ends the round ``ASSIGNED``.  A round that yields no usable quote — every
server refused, every reply timed out, or the confirm leg itself was
lost — ends ``BACKOFF`` and reports the :class:`NegotiationPolicy` delay
for that attempt; *when* to resubmit is the driver's business (the
paper's client resubmits on the next period, which is what the SQLite
federation in :mod:`repro.dbms` does).

A session needs a transport that materialises replies.  The simulator
has none: its allocators charge each exchange on
``repro.sim.network.Network.fanout`` (``replies=()``) and react to its
``delivered`` / ``replied`` sets; what they share with this module is
:meth:`NegotiationPolicy.backoff_ms`, which the fault layer delegates
to.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

from .messages import AssignQuery, BidRequest, Quote
from .transport import Transport

__all__ = [
    "SessionState",
    "NegotiationPolicy",
    "NegotiationOutcome",
    "MarketSession",
]


class SessionState(enum.Enum):
    """How one bid round ended."""

    ASSIGNED = "assigned"
    BACKOFF = "backoff"


@dataclass(frozen=True)
class NegotiationPolicy:
    """Client-side robustness policy of the negotiation.

    ``bid_timeout_ms`` bounds how long the client waits for bid replies
    (transports enforce it leg by leg; :class:`~repro.protocol.transport
    .FanoutResult` reports it as the exchange delay on any silence).  The
    backoff triple is the capped exponential delay between resubmissions:
    ``backoff_base_ms * backoff_factor ** attempt``, clamped to
    ``backoff_cap_ms`` — byte-identical to the formula the simulator's
    fault layer has applied since it delegated here.
    """

    bid_timeout_ms: float = 10.0
    backoff_base_ms: float = 250.0
    backoff_factor: float = 2.0
    backoff_cap_ms: float = 2_000.0

    def __post_init__(self) -> None:
        if self.bid_timeout_ms <= 0:
            raise ValueError("bid timeout must be positive")
        if self.backoff_base_ms <= 0:
            raise ValueError("backoff base must be positive")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff factor must be >= 1")
        if self.backoff_cap_ms < self.backoff_base_ms:
            raise ValueError("backoff cap must be >= the base delay")

    def backoff_ms(self, attempt: int) -> float:
        """Capped exponential resubmission delay for retry ``attempt``.

        Monotone non-decreasing in ``attempt`` and bounded by
        ``backoff_cap_ms`` — the properties the hypothesis suite pins.
        """
        if attempt < 0:
            raise ValueError("attempt must be non-negative")
        delay = self.backoff_base_ms * (self.backoff_factor**attempt)
        cap = self.backoff_cap_ms
        return cap if delay > cap else delay


@dataclass(frozen=True)
class NegotiationOutcome:
    """What one bid round amounted to."""

    request: BidRequest
    #: Winning node, or ``None`` when the round ended unassigned.
    node_id: Optional[int]
    #: Negotiation latency: the fan-out, the confirm leg, the backoff.
    delay_ms: float
    #: The backoff share of ``delay_ms`` (0 when assigned).
    backoff_ms: float
    #: Network messages spent.
    messages: int
    #: Quotes received (refusals and silence excluded).
    quotes_seen: int
    state: SessionState

    @property
    def assigned(self) -> bool:
        """True when a server accepted the query."""
        return self.node_id is not None


class MarketSession:
    """Drives the bid → quote → assign/refuse/resubmit conversation."""

    def __init__(
        self,
        transport: Transport,
        policy: Optional[NegotiationPolicy] = None,
    ) -> None:
        self._transport = transport
        self._policy = policy or NegotiationPolicy()

    @staticmethod
    def best_quote(quotes: Sequence[Quote]) -> Optional[Quote]:
        """The paper's winner rule: earliest estimated completion, ties
        resolved to the lowest node id.  ``None`` for an empty round."""
        if not quotes:
            return None
        return min(
            quotes, key=lambda q: (q.estimated_completion_ms, q.node_id)
        )

    def negotiate_once(
        self, request: BidRequest, peers: Sequence[int]
    ) -> NegotiationOutcome:
        """One bid round: fan out, pick a winner, confirm the assignment.

        Ends :attr:`SessionState.ASSIGNED` on success and
        :attr:`SessionState.BACKOFF` otherwise — an unassigned outcome
        already includes the policy's backoff delay for this attempt; a
        driver that paces resubmissions by the market period (the SQLite
        federation) ignores it and resubmits with ``attempt + 1``.
        """
        result = self._transport.fanout(request.origin_node, peers, request)
        delay = result.delay_ms
        messages = result.messages
        quotes = [r for r in result.replies if isinstance(r, Quote)]
        winner = self.best_quote(quotes)
        if winner is not None:
            assign = AssignQuery(
                qid=request.qid,
                node_id=winner.node_id,
                class_index=request.class_index,
            )
            confirm = self._transport.fanout(
                request.origin_node, (winner.node_id,), assign
            )
            delay += confirm.delay_ms
            messages += confirm.messages
            if confirm.replied:
                return NegotiationOutcome(
                    request=request,
                    node_id=winner.node_id,
                    delay_ms=delay,
                    backoff_ms=0.0,
                    messages=messages,
                    quotes_seen=len(quotes),
                    state=SessionState.ASSIGNED,
                )
        # All refused, total silence, or the confirm leg was lost: the
        # client cannot tell these apart, so it paces itself identically.
        backoff = self._policy.backoff_ms(request.attempt)
        return NegotiationOutcome(
            request=request,
            node_id=None,
            delay_ms=delay + backoff,
            backoff_ms=backoff,
            messages=messages,
            quotes_seen=len(quotes),
            state=SessionState.BACKOFF,
        )
