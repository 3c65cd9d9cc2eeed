"""Vectorised market-tick dispatch for the QA-NT bidding fan-out.

PR 5's period engine batched the *boundary* (steps 12–14 + eq. 4); this
module batches the other scalar frontier: the per-query request-for-bid
exchange itself.  :class:`MarketTickDispatcher` mirrors the inlined
bidder loop of :meth:`repro.allocation.qant.QantAllocator.assign` as a
handful of numpy operations over per-class state arrays gathered from
the precompiled bidder tuples:

* offer test ``remaining >= 1.0`` over the whole candidate set at once;
* bulk refusal bookkeeping — refusal counts, the steps-8/9 price raise
  with the exact scalar clamp order, price-epoch deltas and the
  incremental ``max_price`` — against agent-global auxiliary arrays;
* the Section 5.1 activation rule (threshold test + enforce latch) as
  mask arithmetic;
* best-offer selection as a masked ``argmin`` over the fleet's shared
  ``slot_free`` mirror (first-occurrence ``argmin`` over ascending node
  ids reproduces the scalar strict-``<`` lowest-id tie-break).

Bit-identity contract: every float is produced by the same IEEE-754
operation sequence as the scalar loop, so goldens must not move with the
dispatcher active.  A class's lanes are copies, gathered at most once per
period from whichever side holds the market state (DESIGN.md §5.2) and
returned the same way: :meth:`MarketTickDispatcher.sync` overlays them
onto the agents' live lists (the allocator calls it from
``sync_market_state`` and at a boundary that finds the agents live),
:meth:`MarketTickDispatcher.close_period` hands them back to a bound
period engine's matrices at a boundary nobody observed.

The auxiliary arrays are *agent-global* (indexed by fleet row), not
per-class: an agent bidding in several classes shares one ``max_price``,
one price epoch and one enforce latch across all of them, so raises from
class *j*'s exchange must be visible to class *k*'s threshold test
without a scatter/gather round trip.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

try:  # Same optional posture as repro.sim.fleet; no numpy, no dispatcher.
    import numpy as _np
except ImportError:  # pragma: no cover - scalar paths cover this
    _np = None

__all__ = [
    "BatchDispatchStats",
    "MarketTickDispatcher",
    "refusal_raise",
]


def refusal_raise(values, factor, floor, cap):
    """Steps 8-9 price raise over a vector of refused lanes.

    Returns ``(raised, changed)``: the new prices after one refusal raise
    with the exact scalar clamp order (floor first, then cap —
    max-then-min is identical for ``floor <= cap`` over these positive
    finite values), and the boolean mask of lanes whose price actually
    moved.  This is the single point of truth for the raise arithmetic:
    the fleet-wide dispatcher below, the sharded coordinator's market
    plane and every shard-local market plane
    (:class:`repro.sim.shards._MarketPlane` — one dispatcher-equivalent
    instance per shard) all call it, so bit-identity across engines is a
    property of one function, not of N transcriptions.
    """
    raised = values * factor
    _np.maximum(raised, floor, out=raised)
    _np.minimum(raised, cap, out=raised)
    return raised, raised != values


class BatchDispatchStats:
    """Counters of the vectorised bidding fan-out (see allocator stats)."""

    __slots__ = ("vector_exchanges", "scalar_fallbacks", "syncs", "gathers")

    def __init__(self) -> None:
        #: Request-for-bid exchanges answered on the vector path.
        self.vector_exchanges = 0
        #: Exchanges that had to drop to the scalar loop (partial
        #: fan-outs during outage windows).
        self.scalar_fallbacks = 0
        #: Write-backs of cached state (into the live agent lists or the
        #: period engine's arrays).
        self.syncs = 0
        #: Per-class state gathers (at most one per class per period).
        self.gathers = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "vector_exchanges": self.vector_exchanges,
            "scalar_fallbacks": self.scalar_fallbacks,
            "syncs": self.syncs,
            "gathers": self.gathers,
        }


class _ClassState:
    """One class's candidate fan-out as arrays.

    ``ids``/``rows``/``costs``/``bidders`` (and ``engine_rows``, once bound
    to a period engine) are static for the federation's lifetime;
    ``R``/``V``/``F``/``ACC`` (remaining supply, price values, refusal
    counts, accepted counts — column ``class_index`` of each bidder's
    state) are gathered lazily per period and dropped to ``None`` when
    they are written back.
    """

    __slots__ = (
        "class_index", "ids", "rows", "costs", "bidders", "engine_rows",
        "R", "V", "F", "ACC",
    )

    def __init__(self, class_index, ids, rows, costs, bidders) -> None:
        self.class_index = class_index
        self.ids = ids
        self.rows = rows
        self.costs = costs
        self.bidders = bidders
        self.engine_rows = None
        self.R = None
        self.V = None
        self.F = None
        self.ACC = None


class MarketTickDispatcher:
    """Vectorised request-for-bid exchange over a full candidate set.

    Built by :class:`~repro.allocation.qant.QantAllocator` only when the
    whole fleet is dispatchable: numpy + fleet arrays available, no
    message faults, no partial adoption, no private classification, no
    offer-premium filter, and every bidder a plain
    :class:`~repro.core.qant.QantPricingAgent`.
    """

    def __init__(
        self,
        fleet,
        nodes: Mapping[int, object],
        bidders_by_class: Mapping[int, Tuple],
        activation_threshold: Optional[float],
        raise_factor: float,
        price_floor: float,
        price_cap: float,
    ) -> None:
        self._fleet = fleet
        self._threshold = activation_threshold
        self._factor = raise_factor
        self._floor = price_floor
        self._cap = price_cap
        self.stats = BatchDispatchStats()
        row_of = fleet.row_of
        self._states: Dict[int, _ClassState] = {}
        for class_index, bidders in bidders_by_class.items():
            self._states[class_index] = _ClassState(
                class_index,
                _np.array([b[0] for b in bidders], dtype=_np.int64),
                _np.array(
                    [row_of[b[0]] for b in bidders], dtype=_np.intp
                ),
                _np.array(
                    [nodes[b[0]]._costs[class_index] for b in bidders],
                    dtype=float,
                ),
                bidders,
            )
        # Agent-global auxiliary state, one row per fleet slot.  Rows
        # whose node bids in no class keep a None agent and are never
        # touched.
        num_rows = len(fleet.node_ids)
        agents_by_row: List[object] = [None] * num_rows
        for bidders in bidders_by_class.values():
            for b in bidders:
                agents_by_row[row_of[b[0]]] = b[1]
        self._aux_agents = agents_by_row
        self._aux_maxp = _np.zeros(num_rows, dtype=float)
        self._aux_locked = _np.zeros(num_rows, dtype=bool)
        self._aux_delta = _np.zeros(num_rows, dtype=_np.int64)
        self._aux_fresh = False
        #: The bound period engine and the fleet row of each of its rows.
        self._engine = None
        self._engine_fleet_rows = None

    def bind_engine(self, engine, node_ids) -> None:
        """Back the lanes with ``engine``'s matrices (row *i* = ``node_ids[i]``).

        Only valid when the engine manages every bidder.  From here on,
        while the engine (not the agents) holds the market state, lanes
        are gathered from and closed into its arrays.
        """
        row_of = self._fleet.row_of
        engine_row_of = {nid: i for i, nid in enumerate(node_ids)}
        for st in self._states.values():
            st.engine_rows = _np.array(
                [engine_row_of[nid] for nid in st.ids.tolist()],
                dtype=_np.intp,
            )
        self._engine_fleet_rows = _np.array(
            [row_of[nid] for nid in node_ids], dtype=_np.intp
        )
        self._engine = engine

    def _arrays_live(self) -> bool:
        engine = self._engine
        return engine is not None and not engine.agents_live

    # -- gather ---------------------------------------------------------------

    def _gather_aux(self) -> None:
        """Snapshot every agent's max price and enforce latch.

        Reading ``agent.max_price`` materialises the lazily-tracked
        maximum; from here on the vector path maintains it incrementally,
        which stays exact because prices only rise within a period and
        every raise updates the running maximum.  On adopted arrays both
        are the boundary's own baseline: no price has moved yet this
        period (the first refusal brings us here), every latch is open.
        """
        maxp = self._aux_maxp
        locked = self._aux_locked
        self._aux_delta[:] = 0
        self._aux_fresh = True
        if self._arrays_live():
            maxp[self._engine_fleet_rows] = self._engine.max_prices()
            locked[:] = False
            return
        for row, agent in enumerate(self._aux_agents):
            if agent is None:
                continue
            maxp[row] = agent.max_price
            locked[row] = agent._enforce_locked_at is not None

    def _live_state(self, class_index: int) -> _ClassState:
        st = self._states[class_index]
        if st.R is None:
            if self._arrays_live():
                # The boundary's own baseline: supply and prices as the
                # engine left them, counters at zero.
                st.R, st.V = self._engine.lanes(st.engine_rows, class_index)
                st.F = _np.zeros(len(st.ids), dtype=_np.int64)
                st.ACC = _np.zeros(len(st.ids), dtype=_np.int64)
            else:
                bidders = st.bidders
                st.R = _np.array([b[2][class_index] for b in bidders])
                st.V = _np.array([b[3][class_index] for b in bidders])
                st.F = _np.array(
                    [b[4][class_index] for b in bidders], dtype=_np.int64
                )
                st.ACC = _np.array(
                    [b[1]._accepted[class_index] for b in bidders],
                    dtype=_np.int64,
                )
            self.stats.gathers += 1
        return st

    # -- the exchange ---------------------------------------------------------

    def exchange(
        self, class_index: int, now: float
    ) -> Tuple[Optional[int], bool]:
        """One full-fan-out request-for-bid exchange at time ``now``.

        Returns ``(chosen_node_id, saturated)``: the winning node (supply
        consumed, like the scalar accept) or ``None`` when every bidder
        refused, with ``saturated`` flagging the all-refuse case whose
        every price sits at the cap (the caller arms its saturation fast
        path exactly as the scalar loop would).
        """
        st = self._live_state(class_index)
        R = st.R
        V = st.V
        offers = R >= 1.0
        refuse = _np.nonzero(~offers)[0]
        if refuse.size:
            if not self._aux_fresh:
                self._gather_aux()
            rows_r = st.rows[refuse]
            # Steps 8-9 in bulk: one refusal count and one price raise per
            # refusing bidder, with the scalar clamp order (floor first,
            # then cap; max-then-min is identical for floor <= cap over
            # these positive finite values).  Unchanged lanes are
            # rewritten with identical bits, so the scatter stays exact.
            st.F[refuse] += 1
            new, changed = refusal_raise(
                V[refuse], self._factor, self._floor, self._cap
            )
            V[refuse] = new
            m = self._aux_maxp[rows_r]
            if changed.any():
                self._aux_delta[rows_r] += changed
                # `maximum` matches the scalar `new > m` keep-or-replace:
                # ties return the shared (positive) value bit-for-bit.
                m = _np.maximum(m, new)
                self._aux_maxp[rows_r] = m
            threshold = self._threshold
            if threshold is not None:
                # Activation rule: a refusing node still *offers* while
                # unlatched and below the threshold; at/above it the
                # latch is set (and stays set for the period).
                passed = ~self._aux_locked[rows_r]
                passed &= m < threshold
                self._aux_locked[rows_r] = ~passed
                offers[refuse] = passed
        if not offers.any():
            # All-refuse exchange; saturated iff every price is pinned at
            # the cap (with a threshold, the latch is then set on every
            # bidder too — maxp >= cap >= threshold for any sane config,
            # and the latch assignment above already ran).
            self.stats.vector_exchanges += 1
            return None, bool((V == self._cap).all())
        sf = self._fleet.slot_free[st.rows]
        # `maximum(sf, now)` is the scalar `sf if sf > now else now`:
        # equal operands share one bit pattern (timestamps are
        # non-negative, so no -0.0/+0.0 split is observable).
        est = _np.maximum(sf, now)
        est += st.costs
        est = _np.where(offers, est, _np.inf)
        winner = int(est.argmin())
        if R[winner] >= 1.0:
            R[winner] -= 1.0
            st.ACC[winner] += 1
        self.stats.vector_exchanges += 1
        return int(st.ids[winner]), False

    # -- scatter --------------------------------------------------------------

    def close_period(self) -> None:
        """Return the cached lanes to the engine's arrays at a boundary.

        The array-to-array counterpart of :meth:`sync`: supply, prices
        and the epoch deltas go back; what the boundary is about to reset
        (refusal/accept counts, running maxima, latches) is dropped.
        """
        engine = self._engine
        synced = False
        for st in self._states.values():
            if st.R is None:
                continue
            synced = True
            engine.absorb(st.engine_rows, st.class_index, st.R, st.V)
            st.R = st.V = st.F = st.ACC = None
        if self._aux_fresh:
            synced = True
            engine.bump_epochs(self._aux_delta[self._engine_fleet_rows])
            self._aux_fresh = False
        if synced:
            self.stats.syncs += 1

    def sync(self) -> None:
        """Write all cached state back into the live agent lists.

        The agents must hold the market state.
        After this returns, every agent holds exactly the state the
        scalar loop would have left behind, and the next exchange
        re-gathers from scratch.  Idempotent and cheap when nothing is
        cached.
        """
        synced = False
        for st in self._states.values():
            if st.R is None:
                continue
            synced = True
            k = st.class_index
            r_list = st.R.tolist()
            v_list = st.V.tolist()
            f_list = st.F.tolist()
            acc_list = st.ACC.tolist()
            for i, b in enumerate(st.bidders):
                b[2][k] = r_list[i]
                b[3][k] = v_list[i]
                b[4][k] = f_list[i]
                b[1]._accepted[k] = acc_list[i]
            st.R = st.V = st.F = st.ACC = None
        if self._aux_fresh:
            synced = True
            threshold = self._threshold
            deltas = self._aux_delta.tolist()
            maxps = self._aux_maxp.tolist()
            lockeds = self._aux_locked.tolist()
            for row, agent in enumerate(self._aux_agents):
                if agent is None:
                    continue
                delta = deltas[row]
                if delta:
                    agent._price_epoch += delta
                    agent._prices_cache = None
                # The gather materialised the lazy maximum, so writing it
                # back unconditionally only ever restates the true value.
                agent._max_price = maxps[row]
                if (
                    threshold is not None
                    and lockeds[row]
                    and agent._enforce_locked_at is None
                ):
                    agent._enforce_locked_at = threshold
            self._aux_fresh = False
        if synced:
            self.stats.syncs += 1
