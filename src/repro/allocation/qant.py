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
from typing import Dict, Iterable, Optional, Set, Tuple

from ..core.classification import (
    PrivatelyClassifiedAgent,
    cost_band_classification,
)
from ..core.period_engine import QantPeriodEngine
from ..core.qant import QantParameters, QantPricingAgent
from ..core.supply import CapacitySupplySet
from ..query.model import Query
from .base import Allocator, AssignmentDecision, BatchDecisions
from .market_tick import MarketTickDispatcher

try:  # Optional, mirroring repro.sim.fleet: no numpy, no vector paths.
    import numpy as _np
except ImportError:  # pragma: no cover - scalar paths cover this
    _np = None

__all__ = [
    "QantAllocator",
]


class QantAllocator(Allocator):
    """The paper's decentralised query-market mechanism."""

    name = "qa-nt"
    respects_autonomy = True
    distributed = True

    #: Default per-node price level above which supply vectors are
    #: enforced: with the default lambda of 0.1, a class reaches it after
    #: roughly seven net refusals — a sustained-overload signal.
    DEFAULT_ACTIVATION_THRESHOLD = 2.0

    #: Default backlog allowance: the period length plus twice the node's
    #: largest class cost.  One max-cost of headroom guarantees an idle
    #: node can always admit its biggest query (otherwise integer supply
    #: rounds long queries to zero — the Section 5.1 rounding issue); the
    #: second softens retry quantisation under bursty loads.  Measured in
    #: the allowance ablation.
    DEFAULT_ALLOWANCE_FACTOR = 2.0

    def __init__(
        self,
        parameters: Optional[QantParameters] = None,
        adopters: Optional[Iterable[int]] = None,
        activation_threshold: Optional[float] = DEFAULT_ACTIVATION_THRESHOLD,
        queue_allowance_ms: Optional[float] = None,
        allowance_factor: float = DEFAULT_ALLOWANCE_FACTOR,
        max_offer_premium: Optional[float] = None,
        private_buckets: Optional[int] = None,
    ):
        """``queue_allowance_ms`` bounds each node's committed backlog: a
        node sells supply only up to ``allowance - current_backlog`` per
        period.  The default allowance is the period length plus the
        node's largest class cost, which guarantees an idle node can
        always admit at least one query of any class it holds data for —
        otherwise per-period integer supply rounds long queries to zero
        (the paper's Section 5.1 rounding discussion)."""
        super().__init__()
        self._params = parameters or QantParameters()
        self._adopters: Optional[Set[int]] = (
            set(adopters) if adopters is not None else None
        )
        if allowance_factor <= 0:
            raise ValueError("allowance factor must be positive")
        self._activation_threshold = activation_threshold
        self._queue_allowance_ms = queue_allowance_ms
        self._allowance_factor = allowance_factor
        self._max_offer_premium = max_offer_premium
        if private_buckets is not None and private_buckets <= 0:
            raise ValueError("private_buckets must be positive")
        #: When set, every node prices its *own* coarse classification of
        #: the query classes (Section 3.3's autonomy-preserving option)
        #: with this many cost bands, instead of the global class set.
        self._private_buckets = private_buckets
        self._agents: Dict[int, object] = {}
        self._allowances: Dict[int, float] = {}
        #: Per class, the candidate fan-out as precompiled 5-slot bidder
        #: tuples — the request-for-bid loop iterates this instead of
        #: re-resolving every node's agent per query (see `_after_bind`).
        self._bidders_by_class: Dict[int, Tuple] = {}
        #: Serial number of the current period, bumped by
        #: `on_period_start`; keys the per-class saturation fast path.
        self._period_serial = 0
        #: ``class_index -> period serial`` recording that every bidder of
        #: the class was observed *saturated* this period: zero remaining
        #: supply, class price pinned at the cap, and (with an activation
        #: threshold) the enforce latch set.  A request-for-bid against a
        #: fully saturated class is then an all-refuse exchange whose only
        #: agent-side effect is one refusal count per node, so `assign`
        #: skips the fan-out loop and defers those counts (flushed at the
        #: next period tick, before any period stats are computed).
        self._saturated_in: Dict[int, int] = {}
        self._deferred_refusals: Dict[int, int] = {}
        #: Per class, the nodes that offered on the last successful
        #: exchange — the stale cache graceful degradation falls back to
        #: when a faulted fan-out yields total silence (fault runs only).
        self._last_good: Dict[int, Tuple[int, ...]] = {}
        #: The batched period-boundary engine over every plain pricing
        #: agent, plus the (node_id, agent) rows it cannot manage —
        #: privately-classifying agents and non-batchable solver methods —
        #: which keep the original per-agent loop (see `_after_bind`).
        self._engine: Optional[QantPeriodEngine] = None
        self._engine_node_ids: Tuple[int, ...] = ()
        self._scalar_agents: Tuple[Tuple[int, object], ...] = ()
        #: The vectorised request-for-bid exchange (see
        #: :mod:`repro.allocation.market_tick`); built in `_after_bind`
        #: only when the whole fleet is dispatchable, ``None`` otherwise.
        self._dispatcher: Optional[MarketTickDispatcher] = None
        #: The context's network when its transport is the plain
        #: simulator adapter, enabling the one-draw-per-tick bulk latency
        #: path of `assign_batch`; ``None`` under any custom transport.
        self._bulk_rtt_network = None
        #: Whether single `assign` calls may also use the vector exchange
        #: and keep dispatcher state cached across calls.  Armed by
        #: `on_run_start` (inside a federation run every observer goes
        #: through `sync_market_state`); direct API users keep the scalar
        #: loop and always-live agent state.
        self._vector_singles = False
        #: Whether the period engine's arrays keep the market state from
        #: one boundary to the next (DESIGN.md §5.2): inside a federation
        #: run whose engine manages every dispatcher lane.
        self._array_resident = False
        #: Fleet rows / allowances of the engine-managed nodes, for the
        #: vectorised free-capacity probe (``None`` without fleet arrays).
        self._engine_rows_np = None
        self._engine_allowances_np = None
        #: Whether anything touched the market since the last period
        #: boundary (an assignment ran, a query completed).  While False,
        #: a quiescent engine can fast-forward boundaries in O(1).
        self._interacted = True

    @property
    def agents(self) -> Dict[int, QantPricingAgent]:
        """The per-node pricing agents (adopting nodes only)."""
        return self._agents

    def _is_adopter(self, node_id: int) -> bool:
        return self._adopters is None or node_id in self._adopters

    def _after_bind(self) -> None:
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
                    self.context.period_ms + self._allowance_factor * max_cost
                )
            self._allowances[node_id] = allowance
            if self._private_buckets is None:
                self._agents[node_id] = QantPricingAgent(
                    node.make_supply_set(self.context.period_ms),
                    parameters=self._params,
                )
            else:
                scheme = cost_band_classification(
                    node.class_costs_ms, self._private_buckets
                )
                self._agents[node_id] = PrivatelyClassifiedAgent(
                    scheme,
                    node.class_costs_ms,
                    self.context.period_ms,
                    parameters=self._params,
                )
        # Candidate sets and agent bindings are both fixed for the life of
        # the federation, so the request-for-bid fan-out can be compiled
        # once per class.  Each bidder is a 5-slot tuple
        # ``(node_id, agent, remaining, price_values, refused)``:
        #
        # * a non-adopter is ``(nid, None, None, None, None)`` — it always
        #   offers (greedy behaviour);
        # * a plain pricing agent carries its live per-period state lists
        #   (see ``QantPricingAgent.bid_state``), letting ``assign`` mirror
        #   ``quote`` inline with no per-node call frame;
        # * a privately-classifying agent carries ``None`` state (its
        #   global→bucket mapping makes inlining not worth it) and is
        #   quoted through the method call.
        self._bidders_by_class = {
            class_index: tuple(
                self._compile_bidder(node_id) for node_id in candidates
            )
            for class_index, candidates in
            self.context.candidates_by_class.items()
        }
        # All agents share `self._params`, so the raise arithmetic the
        # inlined loop mirrors can be hoisted once.
        self._raise_factor = 1.0 + self._params.adjustment
        self._price_floor = self._params.price_floor
        self._price_cap = self._params.price_cap
        # Partition the fleet for the period boundary: every plain pricing
        # agent goes into the batched engine; privately-classifying agents
        # and non-batchable solver methods stay on the scalar loop.
        # Boundary deferral is only enabled for an all-engine fleet — with
        # scalar rows ticking anyway, the observability gain of always
        # materialising outweighs the saving.
        engine_rows = [
            (node_id, agent)
            for node_id, agent in self._agents.items()
            if QantPeriodEngine.accepts(agent)
        ]
        engine_ids = {node_id for node_id, __ in engine_rows}
        self._scalar_agents = tuple(
            (node_id, agent)
            for node_id, agent in self._agents.items()
            if node_id not in engine_ids
        )
        if engine_rows:
            self._engine_node_ids = tuple(nid for nid, __ in engine_rows)
            self._engine = QantPeriodEngine(
                [agent for __, agent in engine_rows],
                [self._allowances[nid] for nid in self._engine_node_ids],
                can_defer=not self._scalar_agents,
            )
        fleet = self.context.fleet
        if fleet is not None and self._engine_node_ids:
            self._engine_rows_np = _np.array(
                [fleet.row_of[nid] for nid in self._engine_node_ids],
                dtype=_np.intp,
            )
            self._engine_allowances_np = _np.array(
                [self._allowances[nid] for nid in self._engine_node_ids],
                dtype=float,
            )
        # The vector exchange requires the whole fan-out to follow the
        # inlined plain-agent arithmetic: full adoption, global classes,
        # no premium filter, no message faults, every bidder an
        # exact-type pricing agent with live state lists.  Anything else
        # keeps the scalar loop (which remains the outage fallback even
        # when the dispatcher is active).
        if (
            fleet is not None
            and self.context.faults is None
            and self._adopters is None
            and self._private_buckets is None
            and self._max_offer_premium is None
            and all(
                b[2] is not None and type(b[1]) is QantPricingAgent
                for bidders in self._bidders_by_class.values()
                for b in bidders
            )
        ):
            self._dispatcher = MarketTickDispatcher(
                fleet,
                self.context.nodes,
                self._bidders_by_class,
                self._activation_threshold,
                self._raise_factor,
                self._price_floor,
                self._price_cap,
            )
        # Bulk latency draws are only exact against the plain simulated
        # wire; a custom transport must see one fanout call per query.
        from ..sim.transport import SimTransport  # lazy: package cycle

        transport = self.context.transport
        if (
            type(transport) is SimTransport
            and transport.network is self.context.network
        ):
            self._bulk_rtt_network = self.context.network
        self._interacted = True
        self.on_period_start()

    def _compile_bidder(self, node_id: int):
        agent = self._agents.get(node_id)
        if isinstance(agent, QantPricingAgent):
            remaining, values, refused = agent.bid_state()
            return (node_id, agent, remaining, values, refused)
        return (node_id, agent, None, None, None)

    def on_period_start(self) -> None:
        """Step 2 of QA-NT at every node: re-solve eq. 4.

        The supply set is rebuilt each period with the node's *free*
        backlog allowance (allowance minus outstanding queued work), so a
        node with a committed queue does not sell time it no longer has,
        while an idle node can always admit its largest query.

        Plain pricing agents are driven through the batched
        :class:`~repro.core.period_engine.QantPeriodEngine` (bit-identical
        to this method's scalar loop; the boundary has no cross-agent
        coupling, so ordering engine rows before scalar rows is
        unobservable); the remaining agents keep the per-agent path.
        """
        engine = self._engine
        dispatcher = self._dispatcher
        if engine is not None and not engine.agents_live:
            # Nobody looked since the last boundary: the period closes
            # array-to-array.  Deferred refusal counts only ever land in
            # counters the boundary zeroes before anyone can read them.
            dispatcher.close_period()
            self._deferred_refusals.clear()
        else:
            if dispatcher is not None:
                # Scatter cached exchange state back into the live lists
                # before anything below (deferred-refusal flush, boundary
                # solves) reads or rewrites them.
                dispatcher.sync()
            self._flush_deferred_refusals()
            if self._array_resident:
                engine.adopt(touched=self._interacted)
        self._period_serial += 1
        if engine is not None:
            engine.advance(self._interacted, self._engine_free_capacities)
            self._interacted = False
        nodes = self.context.nodes
        allowances = self._allowances
        for node_id, agent in self._scalar_agents:
            node = nodes[node_id]
            if agent.in_period:
                # Steps 12-14: unsold supply lowers prices before the new
                # period's supply vector is computed.
                agent.end_period()
            free_ms = max(0.0, allowances[node_id] - node.current_load_ms())
            if isinstance(agent, PrivatelyClassifiedAgent):
                agent.rebind_capacity(free_ms)
            else:
                supply_set = agent.supply_set
                if isinstance(supply_set, CapacitySupplySet):
                    # Rebind in place of reconstructing: the cost row never
                    # changes period to period, only the free capacity does.
                    supply_set = supply_set.with_capacity(free_ms)
                else:
                    supply_set = CapacitySupplySet(node.class_costs_ms, free_ms)
                agent.rebind_supply_set(supply_set)
            agent.begin_period()

    def _flush_deferred_refusals(self) -> None:
        """Apply refusal counts deferred by the saturation fast path.

        Runs before any period-closing bookkeeping (``end_period`` stats)
        so every agent's ``refused`` counters are exact whenever period
        statistics are derived from them.
        """
        deferred = self._deferred_refusals
        if not deferred:
            return
        for class_index, count in deferred.items():
            if not count:
                continue
            # Saturation is only ever recorded for classes whose bidders
            # are all plain pricing agents, so every slot carries state.
            for bidder in self._bidders_by_class[class_index]:
                bidder[4][class_index] += count
        deferred.clear()

    def _engine_free_capacities(self) -> list:
        """Per engine row, the node's free backlog allowance right now.

        Only called when a boundary materialises — fast-forwarded ticks
        skip the per-node load probes entirely.
        """
        rows = self._engine_rows_np
        if rows is not None:
            # Vectorised over the fleet's slot_free mirror: each element
            # follows the exact scalar expression
            # ``max(0.0, allowance - current_load_ms())`` (the where-forms
            # reproduce ``max``'s sign behaviour bit-for-bit).
            now = self.context.simulator.now
            remaining = self.context.fleet.slot_free[rows] - now
            load = _np.where(remaining > 0.0, remaining, 0.0)
            free = self._engine_allowances_np - load
            return _np.where(free > 0.0, free, 0.0)
        nodes = self.context.nodes
        allowances = self._allowances
        return [
            max(0.0, allowances[nid] - nodes[nid].current_load_ms())
            for nid in self._engine_node_ids
        ]

    def sync_market_state(self) -> None:
        """Make every agent object current.

        Observers that read agent state between boundaries (the
        :class:`~repro.sim.tracing.MarketTracer`, tests, notebooks) and
        this allocator's scalar paths call this first; afterwards every
        agent holds exactly the state a scalar, never-deferred run would
        show, and the lists hold the market until the next boundary.
        """
        engine = self._engine
        if engine is not None:
            engine.flush()
            engine.materialise()
        if self._dispatcher is not None:
            self._dispatcher.sync()

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

    def on_completion(self, query: Query, node_id: int, actual_ms: float) -> None:
        # A completion frees node capacity, so the next boundary must
        # re-probe loads rather than fast-forward.
        self._interacted = True

    def on_run_start(self) -> None:
        dispatcher = self._dispatcher
        self._vector_singles = dispatcher is not None
        self._array_resident = (
            dispatcher is not None
            and self._engine is not None
            and not self._scalar_agents
        )
        if self._array_resident:
            dispatcher.bind_engine(self._engine, self._engine_node_ids)

    def on_run_end(self) -> None:
        self._vector_singles = self._array_resident = False
        self.sync_market_state()

    def assign(self, query: Query) -> AssignmentDecision:
        engine = self._engine
        if engine is not None:
            self._interacted = True
            if engine.deferred_ticks_pending:
                # The current period's boundary was fast-forwarded; the
                # fan-out below reads live agent state, so settle it now.
                engine.flush()
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
        positive and no message faults are active).  Two things are
        fused.  The latency fan-outs: every exchange's legs come from
        one C-level draw that splits the Mersenne stream exactly as the
        sequential calls would.  And the saturated no-ops: an exchange
        against a class already in `_saturated_in` for this period
        changes nothing but one deferred refusal count per bidder, and
        saturation is monotone within a period (only `on_period_start`
        clears it), so those queries are settled here without a call.
        Everything that can still move the market runs per query in
        arrival order (prices and supply must see each query's effect
        before the next, exactly as the paper's sequential negotiation
        does).
        """
        context = self.context
        network = self._bulk_rtt_network
        if len(queries) < 2 or network is None or context.faults is not None:
            return super().assign_batch(queries)
        engine = self._engine
        if engine is not None:
            self._interacted = True
            if engine.deferred_ticks_pending:
                engine.flush()
        # The batch shares one timestamp, so a class's live candidate set
        # is resolved once per batch, not once per query.
        classes = [query.class_index for query in queries]
        fanouts = {k: context.available_candidates(k) for k in set(classes)}
        bidders_by_class = self._bidders_by_class
        full = {
            k
            for k, candidates in fanouts.items()
            if candidates and len(candidates) == len(bidders_by_class[k])
        }
        widths = [len(fanouts[k]) for k in classes]
        delays = network.round_trip_ms_batch(widths)
        node_ids = [None] * len(queries)
        saturated_in = self._saturated_in
        serial = self._period_serial
        deferred = self._deferred_refusals
        for i, k in enumerate(classes):
            if k in full and saturated_in.get(k) == serial:
                deferred[k] = deferred.get(k, 0) + 1
            elif widths[i]:
                node_ids[i] = self._exchange(k, fanouts[k], use_vector=True)
        if not self._vector_singles:
            # Scatter the batch's cached market state back into the live
            # agent lists before handing control to the event loop —
            # between batches every observer sees exactly the scalar
            # state.  Inside a federation run (`_vector_singles`) the
            # cache stays warm across assigns; `sync_market_state` is the
            # contract every observer goes through instead.
            self.sync_market_state()
        return BatchDecisions(node_ids, delays, [2 * n for n in widths])

    def _exchange(
        self, class_index: int, candidates, use_vector: bool = False
    ) -> Optional[int]:
        """Market reaction to one already-charged request-for-bid fan-out.

        Returns the winning node id, or ``None`` when every bidder refused.
        """
        context = self.context
        num_candidates = len(candidates)
        # Single-pass bid collection over the precompiled fan-out.  Each
        # bidder answers the request-for-bid with `quote` semantics: the
        # unconditional price dynamics (refusals must keep adjusting prices
        # so the overload signal can form) plus the Section 5.1 activation
        # rule (the supply vector is only enforced while the node's prices
        # signal overload).  For plain pricing agents the whole exchange is
        # inlined here against the agent's live state lists — this loop
        # runs nodes x requests times and dominates paper-scale wall-clock,
        # so it trades one method call per node for direct list reads.
        # Any change here must stay in lock-step with
        # `QantPricingAgent.quote` (same arithmetic, same clamp order) or
        # golden traces will move.
        bidders = self._bidders_by_class[class_index]
        full_fanout = len(bidders) == num_candidates
        if full_fanout:
            if self._saturated_in.get(class_index) == self._period_serial:
                # Every bidder is saturated (no supply, price at the cap,
                # latch set): the exchange is an all-refuse no-op except
                # for one refusal count per node, deferred to the next
                # period tick.  Latency/messages were charged — and the
                # RNG drawn — exactly as for the explicit fan-out.
                deferred = self._deferred_refusals
                deferred[class_index] = deferred.get(class_index, 0) + 1
                return None
            vector = use_vector or self._vector_singles
            dispatcher = self._dispatcher if vector else None
            if dispatcher is not None:
                # Vectorised exchange over the full fan-out: same offers,
                # price raises, latch updates and accept as the scalar
                # loop below, as a handful of numpy ops (see
                # repro.allocation.market_tick for the bit-identity
                # argument).  Only taken mid-batch or during a federation
                # run (`_vector_singles`), where every observer goes
                # through the `sync_market_state` contract, so nobody
                # ever sees a stale agent.
                chosen, now_saturated = dispatcher.exchange(
                    class_index, context.simulator.now
                )
                if chosen is None and now_saturated:
                    self._saturated_in[class_index] = self._period_serial
                return chosen
            saturated = True
        else:
            # Some candidate is in an outage window: run the fan-out over
            # the filtered bidders for this query only (failure
            # experiments), and never record saturation from a partial
            # exchange.
            dispatcher = self._dispatcher
            if dispatcher is not None and (use_vector or self._vector_singles):
                dispatcher.stats.scalar_fallbacks += 1
            live = set(candidates)
            bidders = [b for b in bidders if b[0] in live]
            saturated = False
        # The scalar loop below reads and writes the live agent lists.
        self.sync_market_state()
        threshold = self._activation_threshold
        factor = self._raise_factor
        floor = self._price_floor
        cap = self._price_cap
        offers = []
        append = offers.append
        for node_id, agent, remaining, values, refused in bidders:
            if agent is None:
                append(node_id)
                saturated = False
                continue
            if remaining is None:
                # Privately-classifying agent: quote through the method.
                saturated = False
                if agent.quote(class_index, threshold):
                    append(node_id)
                continue
            if remaining[class_index] >= 1.0:
                append(node_id)
                saturated = False
                continue
            # Refusal: raise the class price (steps 8-9), then apply the
            # activation rule — mirrors `QantPricingAgent.quote` exactly.
            refused[class_index] += 1
            old = values[class_index]
            new = old * factor
            if new < floor:
                new = floor
            elif new > cap:
                new = cap
            if new != old:
                values[class_index] = new
                agent._price_epoch += 1
                agent._prices_cache = None
                if agent._max_price is not None and new > agent._max_price:
                    agent._max_price = new
            if new != cap:
                # Price still below the cap: the next refusal will move it
                # again, so this bidder is not yet a no-op.
                saturated = False
            if threshold is None:
                continue
            if agent._enforce_locked_at is not None:
                # The allocator quotes one fixed threshold, so the latch
                # value can only be `threshold` itself: still locked.
                continue
            max_price = agent._max_price
            if max_price is None:
                max_price = max(values)
                agent._max_price = max_price
            if max_price < threshold:
                append(node_id)
                saturated = False
            else:
                agent._enforce_locked_at = threshold
        if offers and self._max_offer_premium is not None:
            offers = self._filter_premium(offers, candidates, class_index)
        if not offers:
            if saturated:
                self._saturated_in[class_index] = self._period_serial
            return None
        # Earliest-estimated-completion winner, inlined (node-id ascending,
        # strict `<`, so ties resolve to the lowest id — the same order
        # `_best_offer` produces).  `estimated_completion_ms` is unrolled
        # for the serial-node common case.
        nodes = context.nodes
        now = context.simulator.now
        chosen = -1
        best = float("inf")
        for nid in offers:
            node = nodes[nid]
            slot_free = node._slot_free_at
            earliest = slot_free[0] if len(slot_free) == 1 else min(slot_free)
            start = now if now >= earliest else earliest
            estimate = start + node._costs[class_index]
            if estimate < best:
                best = estimate
                chosen = nid
        agent = self._agents.get(chosen)
        if agent is not None and agent.supply_left(class_index) >= 1:
            agent.accept(class_index)
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
        delay = exchange.delay_ms
        messages = exchange.messages
        delivered = exchange.delivered
        replied = exchange.replied
        threshold = self._activation_threshold
        agents = self._agents
        offered = set()
        for nid in delivered:
            agent = agents.get(nid)
            if agent is None or agent.quote(class_index, threshold):
                offered.add(nid)
        offers = [nid for nid in replied if nid in offered]
        if offers and self._max_offer_premium is not None:
            offers = self._filter_premium(offers, candidates, class_index)
        if offers:
            chosen = self._best_offer(offers, class_index)
            self._last_good[class_index] = tuple(offers)
            agent = agents.get(chosen)
            if agent is not None and agent.supply_left(class_index) >= 1:
                agent.accept(class_index)
            return AssignmentDecision(chosen, delay_ms=delay, messages=messages)
        if not replied:
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
                chosen = self._best_offer(reachable, class_index)
                faults.note_degraded()
                agent = agents.get(chosen)
                if agent is not None and agent.supply_left(class_index) >= 1:
                    agent.accept(class_index)
                return AssignmentDecision(
                    chosen, delay_ms=delay, messages=messages
                )
        return AssignmentDecision(node_id=None, delay_ms=delay, messages=messages)

    # -- internals ------------------------------------------------------------------

    def _best_offer(self, offers, class_index: int) -> int:
        """Pick the offering node with the earliest estimated completion."""
        nodes = self.context.nodes
        return min(
            offers,
            key=lambda nid: (
                nodes[nid].estimated_completion_ms(class_index),
                nid,
            ),
        )

    def _filter_premium(self, offers, candidates, class_index: int):
        """Drop offers whose execution time is beyond the premium cap.

        The client already holds every candidate's execution-time estimate
        from the probe round; declining an offer more than
        ``max_offer_premium`` times the class's best estimate and retrying
        next period is preferable to committing to a far-inferior mirror.
        """
        if self._max_offer_premium is None or not offers:
            return offers
        nodes = self.context.nodes
        # One estimate per candidate, reused for both the best-estimate
        # baseline and the per-offer comparison.
        exec_ms = {
            nid: nodes[nid].execution_time_ms(class_index)
            for nid in candidates
        }
        cap = min(exec_ms.values()) * self._max_offer_premium
        return [nid for nid in offers if exec_ms[nid] <= cap]

    def _node_enforcing(self, agent: QantPricingAgent) -> bool:
        """Whether this node currently enforces its supply vector.

        Decentralised: the decision uses only the node's own prices.
        """
        if self._activation_threshold is None:
            return True
        return agent.max_price >= self._activation_threshold
