"""QA-NT as a federation allocation mechanism.

Runs the paper's negotiation for every server node: the client asks the
candidate servers, each offers iff its remaining supply vector covers the
query's class, and the client accepts the best offer (earliest estimated
completion).  If every server refuses, the query re-enters next period's
demand — exactly step 4 and the resubmission rule of Section 3.3.

The market state lives in the arrays of one
:class:`~repro.core.period_engine.QantPeriodEngine`, built at bind from
the fleet's cost matrix and kept to the end (DESIGN.md §5.2): one row
per node, no agent objects.  Its boundaries are the nodes' period
boundaries, and every exchange — fault-free, partial, under message
faults, in a run or driven by hand — is priced on its lanes by the
:class:`~repro.allocation.market_tick.MarketTickDispatcher`, the array
spelling of the paper listing
(:meth:`~repro.core.qant.QantPricingAgent.quote` + ``accept``).
:meth:`QantAllocator.market_state` reads the state out, field for field
what the listing's agents would hold.

Two paper-motivated options are exposed:

* ``adopters`` — run QA-NT on only a subset of nodes (Section 4 claims the
  mechanism still helps when partially deployed; ablation A3).  Non-adopting
  nodes behave greedily: they always offer.
* ``activation_threshold`` — Section 5.1 suggests that a deployment
  "properly track query prices but only use them to calculate the nodes'
  query supply vectors if they are above a specific threshold".  Each node
  therefore runs the full price dynamics at all times, but *enforces* its
  supply vector (i.e. actually refuses requests) only while one of its
  prices exceeds the threshold — high prices are the decentralised
  overload signal.  Below the threshold a node accepts any feasible
  request, eliminating the integer-rounding penalty at light load the
  paper discusses.  Pass ``None`` to always enforce (the raw Section 3.3
  algorithm, used by the rounding ablation).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..core.period_engine import QantPeriodEngine
from ..core.qant import (
    DEFAULT_ACTIVATION_THRESHOLD,
    QantParameters,
    backlog_allowance_ms,
)
from ..query.model import Query
from .base import Allocator, AssignmentDecision, BatchDecisions
from .market_tick import MarketTickDispatcher

__all__ = [
    "QantAllocator",
]


class QantAllocator(Allocator):
    """The paper's decentralised query-market mechanism."""

    name = "qa-nt"
    respects_autonomy = True
    distributed = True

    def __init__(
        self,
        parameters: Optional[QantParameters] = None,
        adopters: Optional[Iterable[int]] = None,
        activation_threshold: Optional[float] = DEFAULT_ACTIVATION_THRESHOLD,
        queue_allowance_ms: Optional[float] = None,
    ):
        """``queue_allowance_ms`` bounds each node's committed backlog: a
        node sells supply only up to ``allowance - current_backlog`` per
        period.  The default allowance is the period length plus twice the
        node's largest class cost (:data:`~repro.core.qant
        .DEFAULT_ALLOWANCE_FACTOR`), which guarantees an idle node can
        always admit at least one query of any class it holds data for —
        otherwise per-period integer supply rounds long queries to zero
        (the paper's Section 5.1 rounding discussion)."""
        super().__init__()
        self._params = parameters or QantParameters()
        self._adopters: Optional[Set[int]] = (
            set(adopters) if adopters is not None else None
        )
        self._activation_threshold = activation_threshold
        self._queue_allowance_ms = queue_allowance_ms
        #: Serial number of the current period, bumped by
        #: `on_period_start`; keys the per-class saturation fast path.
        self._period_serial = 0
        #: ``class_index -> period serial`` recording that every bidder of
        #: the class was observed *saturated* this period: zero remaining
        #: supply, class price pinned at the cap, and (with an activation
        #: threshold) the enforce latch set.  A request-for-bid against a
        #: fully saturated class is then an all-refuse exchange that moves
        #: no price, supply or latch, so `assign` skips the fan-out.
        self._saturated_in: Dict[int, int] = {}
        #: Per class, the nodes that offered on the last successful
        #: exchange — the stale cache graceful degradation falls back to
        #: when a faulted fan-out yields total silence (fault runs only).
        self._last_good: Dict[int, Tuple[int, ...]] = {}
        #: The market: the batched period engine, one row per fleet node
        #: in fleet order, and the request-for-bid exchange over its lanes
        #: (see :mod:`repro.allocation.market_tick`); both built in
        #: `_after_bind`.
        self._engine: Optional[QantPeriodEngine] = None
        self._dispatcher: Optional[MarketTickDispatcher] = None
        #: Engine rows of the adopters, and the lanes of the others
        #: (which `on_period_start` sets to unbounded supply).
        self._adopter_rows = None
        self._adopter_ids: Tuple[int, ...] = ()
        self._outsider_lanes = None
        #: Per engine row, the node's backlog allowance.
        self._allowances = None

    def _is_adopter(self, node_id: int) -> bool:
        return self._adopters is None or node_id in self._adopters

    def _after_bind(self) -> None:
        fleet = self.context.fleet
        nodes = self.context.nodes
        costs = [nodes[node_id].class_costs_ms for node_id in fleet.node_ids]
        if self._queue_allowance_ms is not None:
            allowances = [self._queue_allowance_ms] * len(costs)
        else:
            allowances = [
                backlog_allowance_ms(self.context.period_ms, row) for row in costs
            ]
        self._allowances = np.array(allowances, dtype=float)
        self._engine = engine = QantPeriodEngine(costs, self._params)
        adopter = np.array(list(map(self._is_adopter, fleet.node_ids)))
        self._adopter_rows = np.flatnonzero(adopter)
        self._adopter_ids = tuple(
            fleet.node_ids[row] for row in self._adopter_rows.tolist()
        )
        self._outsider_lanes = np.flatnonzero(~adopter[engine.lane_rows])
        self._dispatcher = MarketTickDispatcher(
            fleet,
            self.context.candidates_by_class,
            engine,
            fleet.node_ids,
            self._activation_threshold,
            1.0 + self._params.adjustment,
            self._params.price_floor,
            self._params.price_cap,
        )
        self.on_period_start()

    def on_period_start(self) -> None:
        """Step 2 of QA-NT at every node: re-solve eq. 4.

        The supply set is rebuilt each period with the node's *free*
        backlog allowance (allowance minus outstanding queued work), so a
        node with a committed queue does not sell time it no longer has,
        while an idle node can always admit its largest query.

        Every node's boundary (steps 12-14 decay, the rebind, eq. 4) is
        one tick of the batched
        :class:`~repro.core.period_engine.QantPeriodEngine`, bit-identical
        to the listing agents' own ``end_period`` → ``rebind_supply_set`` →
        ``begin_period``.  A non-adopter's lanes then get unbounded
        supply: they always offer, are never priced, and paying a unit
        leaves them unbounded.
        """
        self._dispatcher.close_period()
        self._period_serial += 1
        self._engine.advance(self._engine_free_capacities)
        self._engine.R[self._outsider_lanes] = math.inf
        self._dispatcher.block.rearm()

    def _engine_free_capacities(self):
        """Per engine row, the node's free backlog allowance right now.

        Vectorised over the fleet's slot_free mirror: each element follows
        the exact scalar expression ``max(0.0, allowance -
        current_load_ms())`` (the where-forms reproduce ``max``'s sign
        behaviour bit-for-bit).
        """
        remaining = self.context.fleet.slot_free - self.context.simulator.now
        load = np.where(remaining > 0.0, remaining, 0.0)
        free = self._allowances - load
        return np.where(free > 0.0, free, 0.0)

    def market_state(self) -> List[Tuple[int, tuple]]:
        """Every adopter's market state right now, in node order.

        One ``(node_id, (prices, remaining supply, carry-over credit,
        planned supply, free capacity, enforce latch))`` per adopter, read
        from the period engine's arrays (see
        :meth:`~repro.core.period_engine.QantPeriodEngine.row_states`) and
        this period's latches: the fields the paper listing's agent holds,
        its latch being the activation threshold once crossed, else
        ``None``.
        """
        rows = self._adopter_rows
        threshold = self._activation_threshold
        locked = self._dispatcher.block.locked[rows].tolist()
        return [
            (node_id, (*state, threshold if latch else None))
            for node_id, state, latch in zip(
                self._adopter_ids, self._engine.row_states(rows), locked
            )
        ]

    def market_rows(
        self,
    ) -> List[Tuple[int, Tuple[float, ...], Tuple[float, ...]]]:
        """Every adopter's ``(node_id, prices, planned_supply)`` right now:
        the projection of :meth:`market_state` a tracer reads."""
        return [
            (node_id, state[0], state[3])
            for node_id, state in self.market_state()
        ]

    @property
    def batch_dispatch_stats(self):
        """Counters of the vectorised fan-out (None before bind)."""
        dispatcher = self._dispatcher
        return dispatcher.stats if dispatcher is not None else None

    def on_run_end(self) -> None:
        """Close the last period, so ``batch_syncs`` counts it."""
        self._dispatcher.close_period()

    def assign(self, query: Query) -> AssignmentDecision:
        class_index = query.class_index
        context = self.context
        if context.faults is not None:
            return self._assign_faulty(query)
        candidates = context.available_candidates(class_index)
        if not candidates:
            return AssignmentDecision(node_id=None)
        # The request-for-bid exchange as a protocol event: fault-free,
        # every candidate replies and the delay is the slowest round trip.
        exchange = self._request_bids(query, candidates)
        return AssignmentDecision(
            self._exchange(class_index, candidates),
            delay_ms=exchange.delay_ms,
            messages=exchange.messages,
        )

    def assign_batch(self, queries) -> BatchDecisions:
        """All arrivals of one simulated tick, as one market tick.

        Bit-identical to sequential :meth:`assign` calls (the caller
        guarantees the batch shares a timestamp, negotiation delays are
        positive and no message faults are active).  Beyond the shared
        :meth:`_tick_prologue` (one candidate resolve per class, one
        latency draw per tick), the saturated no-ops are fused: an
        exchange against a class already in `_saturated_in` for this
        period changes nothing, and saturation is monotone within a
        period (only `on_period_start` clears it), so those queries are
        settled here without a call.
        Everything that can still move the market runs per query in
        arrival order (prices and supply must see each query's effect
        before the next, exactly as the paper's sequential negotiation
        does).
        """
        tick = self._tick_prologue(queries)
        if tick is None:
            return super().assign_batch(queries)
        classes, fanouts, widths, delays = tick
        candidates_by_class = self.context.candidates_by_class
        full = {
            k
            for k, candidates in fanouts.items()
            if candidates and len(candidates) == len(candidates_by_class[k])
        }
        node_ids = [None] * len(queries)
        saturated_in = self._saturated_in
        serial = self._period_serial
        # Nothing commits before this returns, so the dispatcher may keep
        # each class's completion estimates for the length of the loop.
        with self._dispatcher.batch():
            for i, k in enumerate(classes):
                if widths[i] and not (
                    k in full and saturated_in.get(k) == serial
                ):
                    node_ids[i] = self._exchange(k, fanouts[k])
        return BatchDecisions(node_ids, delays, [2 * n for n in widths])

    def _exchange(self, class_index: int, candidates) -> Optional[int]:
        """Market reaction to one already-charged request-for-bid fan-out.

        Returns the winning node id, or ``None`` when every bidder refused.
        """
        context = self.context
        full_fanout = len(candidates) == len(
            context.candidates_by_class[class_index]
        )
        if (
            full_fanout
            and self._saturated_in.get(class_index) == self._period_serial
        ):
            # Every bidder is saturated (no supply, price at the cap,
            # latch set): the exchange is an all-refuse no-op.
            # Latency/messages were charged — and the RNG drawn — exactly
            # as for the explicit fan-out.
            return None
        # The lane block over the bidders the request reached (all of
        # them, or the live ones in an outage window): the listing's
        # offers, price raises, latch updates and accept (see
        # repro.allocation.market_tick for the bit-identity argument).
        chosen, saturated = self._dispatcher.exchange(
            class_index,
            context.simulator.now,
            None if full_fanout else candidates,
        )
        if saturated:
            self._saturated_in[class_index] = self._period_serial
        return chosen

    def _assign_faulty(self, query: Query) -> AssignmentDecision:
        """The request-for-bid exchange under message-level faults.

        Requests and replies travel through the protocol transport (the
        fault-injected fan-out of :meth:`repro.sim.network.Network
        .fanout`), which models the bid timeout: a server whose *request*
        arrived runs its full quote dynamics (prices move even when the
        client never hears back — the stale-price regime partitioned
        markets exhibit), but only servers whose *reply* beat the timeout
        can win.  On total silence the client degrades gracefully: it
        falls back to the reachable subset of the last nodes known to
        offer for this class rather than stalling, counting the
        assignment as degraded.
        """
        class_index = query.class_index
        context = self.context
        faults = context.faults
        candidates = context.available_candidates(class_index)
        if not candidates:
            return AssignmentDecision(node_id=None)
        exchange = self._request_bids(query, candidates)
        now = context.simulator.now
        chosen, offers = self._dispatcher.exchange_replied(
            class_index, now, exchange.delivered, exchange.replied
        )
        if offers:
            self._last_good[class_index] = offers
        elif not exchange.replied:
            # Total silence (every reply lost, late, or partitioned away):
            # fall back to the stale cache instead of stalling.
            cached = self._last_good.get(class_index, ())
            live = set(candidates)
            reachable = faults.reachable(
                query.origin_node, [nid for nid in cached if nid in live], now
            )
            if reachable:
                chosen = self._dispatcher.award(class_index, now, reachable)
                faults.note_degraded()
        return AssignmentDecision(
            chosen, delay_ms=exchange.delay_ms, messages=exchange.messages
        )
