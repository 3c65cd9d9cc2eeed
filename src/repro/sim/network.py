"""Simulated network substrate with per-message latency accounting.

Allocation mechanisms differ sharply in how chatty they are (the paper
notes QA-NT "requires more network messages" than its competitors), so the
network model counts every message and charges a latency drawn from a
simple base-plus-jitter model.  Latency matters twice: it delays query
assignment (negotiation round-trips) and it is part of the measured
"time to assign" in the real-deployment experiment (Fig. 7).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from ..protocol.transport import FanoutResult
from .engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .faults import FaultInjector

__all__ = [
    "LatencyModel",
    "Network",
]


@dataclass(frozen=True)
class LatencyModel:
    """One-way message latency: ``base_ms`` plus uniform jitter.

    Defaults approximate the paper's switched 100 Mb LAN: sub-millisecond
    one-way latency with occasional jitter.
    """

    base_ms: float = 0.5
    jitter_ms: float = 0.5

    def __post_init__(self) -> None:
        if self.base_ms < 0 or self.jitter_ms < 0:
            raise ValueError("latency components must be non-negative")


class Network:
    """Message-passing layer over the event simulator.

    Tracks the number of messages sent — the chattiness metric reported in
    Table 2's qualitative comparison and available for ablations.
    """

    def __init__(
        self,
        simulator: Simulator,
        latency: Optional[LatencyModel] = None,
        seed: int = 0,
    ):
        self._sim = simulator
        self._latency = latency or LatencyModel()
        # NumPy's legacy RandomState is the same MT19937 generator with
        # the same 53-bit double construction as CPython's `random`, so
        # transplanting the seeded state yields a stream that is
        # bit-identical draw for draw to `random.Random(seed)`.  Large
        # request-for-bid fan-outs can then sample all their latencies in
        # one C-level call instead of 2*num_peers Python-loop iterations —
        # the single largest RNG cost at paper scale.  Every draw comes
        # from this one stream.
        internal = random.Random(seed).getstate()[1]
        state = np.random.RandomState()
        state.set_state(
            ("MT19937", np.array(internal[:-1], dtype=np.uint64), internal[-1])
        )
        self._np_sample = state.random_sample
        self._messages_sent = 0
        #: Optional fault injector (see :mod:`repro.sim.faults`).  While
        #: None — the default — every code path below is exactly the
        #: pre-fault implementation: same arithmetic, same RNG draws.
        self._faults: Optional["FaultInjector"] = None

    def attach_faults(self, injector: "FaultInjector") -> None:
        """Engage a fault injector for every subsequent message."""
        self._faults = injector

    @property
    def messages_sent(self) -> int:
        """Total messages delivered (or in flight) so far."""
        return self._messages_sent

    def _leg(self) -> float:
        """One one-way latency draw from the (single) latency stream:
        ``base_ms`` plus ``jitter_ms`` times one uniform draw."""
        latency = self._latency
        if latency.jitter_ms == 0:
            return latency.base_ms
        return latency.base_ms + latency.jitter_ms * float(self._np_sample())

    def fanout(self, origin: int, peers: Sequence[int]) -> FanoutResult:
        """One request/reply fan-out exchange, as a protocol event.

        It charges the exchange (messages, latency, fault outcomes)
        without building payloads; the allocators play the server side
        against ``delivered``.  With no fault injector
        attached the exchange is the classic fault-free probe: every
        request arrives, every reply beats the timeout, the delay is the
        slowest round trip (both of the paper's implementations "waited
        for a reply from all nodes") — the exact arithmetic and RNG draws
        :meth:`round_trip_ms` always performed.
        With an injector attached, each leg can be severed by a
        partition, dropped, or delayed by a spike, and the
        :class:`~repro.protocol.transport.FanoutResult` semantics
        (delivered vs replied vs timeout) apply in full.
        """
        peers_t = tuple(peers)
        if self._faults is None:
            delay = self.round_trip_ms(len(peers_t))
            return FanoutResult(
                delay_ms=delay,
                messages=2 * len(peers_t),
                delivered=peers_t,
                replied=peers_t,
            )
        return self._faulty_fanout(origin, peers_t)

    def _faulty_fanout(
        self, origin: int, peers: Tuple[int, ...]
    ) -> FanoutResult:
        """The fault-injected fan-out (see :meth:`fanout` for semantics).

        Models the client at ``origin`` sending a request to every peer
        and waiting up to the spec's ``bid_timeout_ms`` for replies.
        Each leg can be severed by a partition, dropped, or delayed by a
        latency spike; a reply that would land after the timeout counts
        as a timeout (the client has already moved on).
        """
        faults = self._faults
        assert faults is not None
        timeout = faults.spec.bid_timeout_ms
        now = self._sim.now
        delivered = []
        replied = []
        messages = 0
        worst = 0.0
        timeouts = 0
        lost = 0
        for nid in peers:
            messages += 1  # request leg
            if faults.partitioned(origin, nid, now):
                lost += 1
                timeouts += 1
                continue
            if faults.drop_message():
                lost += 1
                timeouts += 1
                continue
            request_ms = self._leg() + faults.spike_penalty_ms()
            delivered.append(nid)
            messages += 1  # reply leg
            if faults.drop_message():
                lost += 1
                timeouts += 1
                continue
            trip = request_ms + self._leg() + faults.spike_penalty_ms()
            if trip > timeout:
                timeouts += 1
                continue
            replied.append(nid)
            if trip > worst:
                worst = trip
        self._messages_sent += messages
        if lost:
            faults.note_lost(lost)
        if timeouts:
            faults.note_timeouts(timeouts)
        delay = timeout if timeouts else worst
        return FanoutResult(
            delay_ms=delay,
            messages=messages,
            delivered=tuple(delivered),
            replied=tuple(replied),
        )

    def round_trip_ms(self, num_peers: int = 1) -> float:
        """Charge a synchronous request/reply exchange with ``num_peers``.

        Returns the latency of the *slowest* round trip — the paper's real
        implementation "waited for a reply from all nodes before deciding"
        — and counts ``2 * num_peers`` messages without scheduling
        deliveries (the caller folds the delay into its own event).
        """
        if num_peers <= 0:
            return 0.0
        self._messages_sent += 2 * num_peers
        latency = self._latency
        base = latency.base_ms
        jitter = latency.jitter_ms
        if jitter == 0:
            return base + base
        sample = self._np_sample
        if num_peers >= 8:
            # Bulk path: one C-level call for all 2*num_peers draws, then
            # vectorised per-pair sums.  Element-wise IEEE arithmetic and
            # `max` are bit-identical to the scalar loop below, and the
            # draws land in the same order (peer i's two legs are entries
            # 2i and 2i+1), so traces do not move.
            legs = base + jitter * sample(2 * num_peers)
            trips = legs[0::2] + legs[1::2]
            return float(trips.max())
        # Scalar path (small fan-outs): unrolled equivalent
        # of max((sample + sample) for each peer).  ``jitter * random()``
        # is bit-identical to ``uniform(0.0, jitter)`` (which computes
        # ``0.0 + (jitter - 0.0) * random()``) and consumes exactly one
        # Mersenne draw either way, so the draw order, the per-pair
        # summation order and every result bit are preserved — while
        # replacing 2*num_peers Python-level ``uniform`` frames with
        # direct C ``random()`` calls.
        worst = (base + jitter * float(sample())) + (
            base + jitter * float(sample())
        )
        for __ in range(num_peers - 1):
            trip = (base + jitter * float(sample())) + (
                base + jitter * float(sample())
            )
            if trip > worst:
                worst = trip
        return worst

    def round_trip_ms_batch(self, sizes: Sequence[int]) -> List[float]:
        """Charge one :meth:`round_trip_ms` exchange per entry of ``sizes``.

        Returns the per-exchange worst round trips in order.  All legs of
        the whole batch are drawn in a single C-level call and split into
        per-exchange segments; because ``k`` sequential ``random_sample``
        draws consume the Mersenne stream exactly like one size-``k`` draw,
        every returned float (and the RNG state left behind) is
        bit-identical to calling ``round_trip_ms(n)`` once per entry.
        """
        sample = self._np_sample
        jitter = self._latency.jitter_ms
        if jitter == 0:
            # No randomness at all: the sequential calls are draw-free.
            return [self.round_trip_ms(n) for n in sizes]
        widths = np.maximum(np.asarray(sizes, dtype=np.intp), 0)
        total = int(widths.sum())
        if total == 0:
            return [0.0] * len(sizes)
        base = self._latency.base_ms
        legs = base + jitter * sample(2 * total)
        trips = legs[0::2] + legs[1::2]
        self._messages_sent += 2 * total
        # One segmented max over the whole draw.  `reduceat` cannot express
        # an empty segment, so zero-width exchanges are masked out (they
        # consume no draws and do not advance the offset).
        drawn = widths > 0
        offsets = (np.cumsum(widths) - widths)[drawn]
        worst = np.zeros(len(widths))
        worst[drawn] = np.maximum.reduceat(trips, offsets)
        return worst.tolist()
