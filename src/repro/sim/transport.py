"""The simulator's backend for the market protocol's transport seam.

:class:`SimTransport` adapts :class:`repro.sim.network.Network` (latency
model, message accounting, optional fault injection) to the
:class:`repro.protocol.transport.Transport` interface, so the allocators
reach the simulated wire through the same verb, ``fanout``, that the
SQLite backend implements.

The adapter is deliberately paper-thin: the simulator *charges* an
exchange (messages, latency, fault outcomes) without materialising
payload bytes, so the ``request`` message is accepted — allocators pass
the real :class:`~repro.protocol.messages.BidRequest` /
:class:`~repro.protocol.messages.AssignQuery` they are performing — but
not serialised, and :attr:`~repro.protocol.transport.FanoutResult
.replies` stays empty.  A :class:`repro.protocol.session.MarketSession`
therefore cannot run over it (it would never see a quote); the
allocators call ``fanout`` themselves and play the server side
(quotes, refusal price dynamics) against the ``delivered`` set, exactly
as before the seam existed, which is what keeps every golden trace
byte-identical.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..protocol.messages import Message
from ..protocol.transport import FanoutResult, Transport
from .network import Network

__all__ = [
    "SimTransport",
]


class SimTransport(Transport):
    """Protocol transport over the discrete-event simulated network."""

    def __init__(self, network: Network) -> None:
        self._network = network

    @property
    def network(self) -> Network:
        """The wrapped simulated network."""
        return self._network

    def fanout(
        self,
        origin: int,
        peers: Sequence[int],
        request: Optional[Message] = None,
    ) -> FanoutResult:
        """Charge one request/reply fan-out on the simulated wire.

        ``request`` is accepted for interface parity but not serialised —
        the simulator models message counts and latency, not payload
        bytes.  Fault semantics (drops, spikes, partitions, the bid
        timeout) apply whenever the network carries an injector.
        """
        return self._network.fanout(origin, peers)
