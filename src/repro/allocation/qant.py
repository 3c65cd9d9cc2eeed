"""QA-NT as a federation allocation mechanism.

Wires one :class:`repro.core.qant.QantPricingAgent` into every (adopting)
server node and drives the paper's negotiation: the client asks the
candidate servers, each offers iff its remaining supply vector covers the
query's class, and the client accepts the best offer (earliest estimated
completion).  If every server refuses, the query re-enters next period's
demand — exactly step 4 and the resubmission rule of Section 3.3.

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
from contextlib import nullcontext
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..core.period_engine import QantPeriodEngine
from ..core.qant import (
    DEFAULT_ACTIVATION_THRESHOLD,
    DEFAULT_ALLOWANCE_FACTOR,
    QantParameters,
    QantPricingAgent,
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
        self._agents: Dict[int, QantPricingAgent] = {}
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
        #: The batched period-boundary engine over every agent, in
        #: :attr:`agents` order (``None`` without adopters).
        self._engine: Optional[QantPeriodEngine] = None
        self._engine_node_ids: Tuple[int, ...] = ()
        #: The vectorised request-for-bid exchange over the period
        #: engine's lanes (see :mod:`repro.allocation.market_tick`); built
        #: in `_after_bind` only under full adoption with no message
        #: faults, ``None`` otherwise.
        self._dispatcher: Optional[MarketTickDispatcher] = None
        #: Whether an array run is in progress (DESIGN.md §5.2): from
        #: `on_run_start` to `on_run_end` of a run with a dispatcher, the
        #: period engine's lanes, priced through the dispatcher's lane
        #: block, are the market.  Otherwise (a scalar run, direct API
        #: use) the agents are, and every exchange is the listing.
        self._array_run = False
        #: Fleet rows / backlog allowances of the adopters, for the
        #: vectorised free-capacity probe (``None`` without an engine).
        self._engine_rows_np = None
        self._engine_allowances_np = None

    @property
    def agents(self) -> Dict[int, QantPricingAgent]:
        """The per-node pricing agents (adopting nodes only).

        Not readable during an array run, whose market state the period
        engine holds: read it through :meth:`market_rows` instead, or
        read the agents once the run has ended.
        """
        if self._array_run:
            raise RuntimeError(
                "the agents are stale during an array run: read prices "
                "and planned supply through market_rows(), or read the "
                "agents after the run"
            )
        return self._agents

    def _is_adopter(self, node_id: int) -> bool:
        return self._adopters is None or node_id in self._adopters

    def _after_bind(self) -> None:
        allowances = []
        for node_id, node in self.context.nodes.items():
            if not self._is_adopter(node_id):
                continue
            if self._queue_allowance_ms is not None:
                allowance = self._queue_allowance_ms
            else:
                max_cost = max(
                    (c for c in node.class_costs_ms if not math.isinf(c)),
                    default=0.0,
                )
                allowance = (
                    self.context.period_ms
                    + DEFAULT_ALLOWANCE_FACTOR * max_cost
                )
            allowances.append(allowance)
            self._agents[node_id] = QantPricingAgent(
                node.make_supply_set(self.context.period_ms),
                parameters=self._params,
            )
        # The batched engine drives every agent's period boundary.
        fleet = self.context.fleet
        if self._agents:
            self._engine_node_ids = tuple(self._agents)
            self._engine = QantPeriodEngine(self._agents.values())
            self._engine_rows_np = np.array(
                [fleet.row_of[nid] for nid in self._engine_node_ids],
                dtype=np.intp,
            )
            self._engine_allowances_np = np.array(allowances, dtype=float)
        # A run is array-resident when every node is a bidder the engine
        # manages (full adoption) and no message faults are active.
        # Anything else negotiates through the listing from start to end.
        if (
            self.context.faults is None
            and self._adopters is None
            and self._engine is not None
        ):
            self._dispatcher = MarketTickDispatcher(
                fleet,
                self.context.candidates_by_class,
                self._engine,
                self._engine_node_ids,
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

        Every agent's boundary (steps 12-14 decay, the rebind, eq. 4) is
        driven through the batched
        :class:`~repro.core.period_engine.QantPeriodEngine`, bit-identical
        to the agents' own ``end_period`` → ``rebind_supply_set`` →
        ``begin_period``.
        """
        if self._array_run:
            self._dispatcher.close_period()
        self._period_serial += 1
        if self._engine is not None:
            self._engine.advance(self._engine_free_capacities)
        if self._array_run:
            # The period opens array-to-array.
            self._dispatcher.block.rearm()

    def _engine_free_capacities(self):
        """Per engine row, the node's free backlog allowance right now.

        Vectorised over the fleet's slot_free mirror: each element follows
        the exact scalar expression ``max(0.0, allowance -
        current_load_ms())`` (the where-forms reproduce ``max``'s sign
        behaviour bit-for-bit).
        """
        now = self.context.simulator.now
        remaining = self.context.fleet.slot_free[self._engine_rows_np] - now
        load = np.where(remaining > 0.0, remaining, 0.0)
        free = self._engine_allowances_np - load
        return np.where(free > 0.0, free, 0.0)

    def market_rows(
        self,
    ) -> List[Tuple[int, Tuple[float, ...], Tuple[float, ...]]]:
        """Every agent's ``(node_id, prices, planned_supply)`` right now,
        in :attr:`agents` order.

        During an array run the rows come from the period engine's
        arrays; otherwise from the agents.
        """
        if not self._array_run:
            return [
                (
                    node_id,
                    tuple(agent.prices.values),
                    tuple(agent.planned_supply.components),
                )
                for node_id, agent in self._agents.items()
            ]
        engine = self._engine
        return list(
            zip(
                self._engine_node_ids,
                map(tuple, engine.price_matrix().tolist()),
                map(tuple, engine._planned.tolist()),
            )
        )

    @property
    def period_engine_stats(self):
        """Counters of the batched boundary engine (None when unused)."""
        engine = self._engine
        return engine.stats if engine is not None else None

    @property
    def batch_dispatch_stats(self):
        """Counters of the vectorised fan-out (None when undispatchable)."""
        dispatcher = self._dispatcher
        return dispatcher.stats if dispatcher is not None else None

    def on_run_start(self) -> None:
        """With a dispatcher, hand the market to the period engine for the
        whole run.

        The dispatcher's lane block starts every period from the
        boundary's baseline: every latch open and each agent's running
        maximum equal to its largest price.  The bind-time boundary leaves
        exactly that; only an exchange driven by hand between bind and run
        can set a latch, and such a run is refused.
        """
        if self._dispatcher is None:
            return
        if any(
            agent._enforce_locked_at is not None
            for agent in self._agents.values()
        ):
            raise RuntimeError(
                "an agent's enforce latch is set at run start (an exchange "
                "was driven by hand after bind); bind a fresh allocator"
            )
        self._engine.adopt()
        self._dispatcher.block.rearm()
        self._array_run = True

    def on_run_end(self) -> None:
        """Write the array run's market state back into the agents once:
        the engine's arrays, then this period's latches."""
        if not self._array_run:
            return
        self._array_run = False
        dispatcher = self._dispatcher
        dispatcher.close_period()
        self._engine.materialise()
        node_ids = self._engine_node_ids
        for row in np.flatnonzero(dispatcher.block.locked).tolist():
            self._agents[node_ids[row]]._enforce_locked_at = (
                self._activation_threshold
            )

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
        dispatcher = self._dispatcher if self._array_run else None
        with dispatcher.batch() if dispatcher is not None else nullcontext():
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
        if self._array_run:
            # The lane block over the bidders the request reached (all of
            # them, or the live ones in an outage window): same offers,
            # price raises, latch updates and accept as the listing below
            # (see repro.allocation.market_tick for the bit-identity
            # argument).
            chosen, saturated = self._dispatcher.exchange(
                class_index,
                context.simulator.now,
                None if full_fanout else candidates,
            )
            if saturated:
                self._saturated_in[class_index] = self._period_serial
            return chosen
        offers = self._negotiate(class_index, candidates)
        if offers:
            return self._award(offers, class_index)
        if full_fanout:
            # The same condition the dispatcher reports: every bidder is an
            # adopter whose class price is pinned at the cap (nobody
            # offered, so none has supply and, with a threshold, every
            # latch is set).  Never recorded from a partial exchange.
            cap = self._params.price_cap
            if all(
                agent is not None
                and agent._price_values[class_index] == cap
                for agent in map(self._agents.get, candidates)
            ):
                self._saturated_in[class_index] = self._period_serial
        return None

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
        chosen = None
        offered = set(self._negotiate(class_index, exchange.delivered))
        offers = [nid for nid in exchange.replied if nid in offered]
        if offers:
            self._last_good[class_index] = tuple(offers)
            chosen = self._award(offers, class_index)
        elif not exchange.replied:
            # Total silence (every reply lost, late, or partitioned away):
            # fall back to the stale cache instead of stalling.
            cached = self._last_good.get(class_index, ())
            live = set(candidates)
            reachable = faults.reachable(
                query.origin_node,
                [nid for nid in cached if nid in live],
                context.simulator.now,
            )
            if reachable:
                chosen = self._award(reachable, class_index)
                faults.note_degraded()
        return AssignmentDecision(
            chosen, delay_ms=exchange.delay_ms, messages=exchange.messages
        )

    # -- internals ------------------------------------------------------------------

    def _negotiate(self, class_index: int, delivered) -> List[int]:
        """One scalar request-for-bid exchange (Def. 4); returns the offers.

        Every bidder the request was ``delivered`` to answers through the
        paper listing, :meth:`~repro.core.qant.QantPricingAgent.quote`:
        the unconditional price dynamics (refusals must keep adjusting
        prices so the overload signal can form) plus the Section 5.1
        activation rule (the supply vector is only enforced while the
        node's prices signal overload).  A non-adopter always offers.
        """
        threshold = self._activation_threshold
        agent_of = self._agents.get
        return [
            node_id
            for node_id in delivered
            if (agent := agent_of(node_id)) is None
            or agent.quote(class_index, threshold)
        ]

    def _award(self, offers, class_index: int) -> int:
        """Accept the offer with the earliest estimated completion.

        Ties resolve to the lowest node id.  The winner pays one unit of
        supply if it has one (a non-adopter, or a node offering below the
        activation threshold, has none to pay).
        """
        nodes = self.context.nodes
        __, chosen = min(
            [(nodes[nid].estimated_completion_ms(class_index), nid)
             for nid in offers]
        )
        agent = self._agents.get(chosen)
        if agent is not None and agent.supply_left(class_index) >= 1:
            agent.accept(class_index)
        return chosen
