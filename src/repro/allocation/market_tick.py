"""Vectorised market-tick dispatch for the QA-NT bidding fan-out.

PR 5's period engine batched the *boundary* (steps 12–14 + eq. 4); this
module batches the other scalar frontier: the per-query request-for-bid
exchange itself.  :func:`exchange_lanes` is the paper listing
(:meth:`repro.core.qant.QantPricingAgent.quote` over a class's bidders,
earliest-completion winner, accept) as a handful of numpy operations
over one class's lanes.  Two callers: :class:`MarketTickDispatcher`, over
per-class state arrays gathered from the class's agents (the fleet's
``slot_free`` mirror as busy clocks, the agents' refusal-count /
price-epoch bookkeeping), and every shard market plane, over views of its
flat lane block.  A numpy call costs microseconds at any width, so planes
price classes of up to :data:`SCALAR_LANES_MAX` lanes through the scalar
twins :func:`exchange_lanes_scalar` / :func:`closed_raises_scalar`: one
loop over ``memoryview``s of those arrays, under the same property test.

Bit-identity contract: every float is produced by the same IEEE-754
operation sequence as the scalar listing, so goldens must not move with
the dispatcher active.  A class's lanes are copies, gathered at most once per
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

from math import inf as _INF
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

try:  # Same optional posture as repro.sim.fleet; no numpy, no dispatcher.
    import numpy as _np
except ImportError:  # pragma: no cover - scalar paths cover this
    _np = None

__all__ = [
    "BatchDispatchStats",
    "MarketTickDispatcher",
    "SCALAR_LANES_MAX",
    "closed_raises_scalar",
    "exchange_lanes",
    "exchange_lanes_scalar",
    "refusal_raise",
    "scalar_lanes",
]


def refusal_raise(values, factor, floor, cap):
    """Steps 8-9 price raise over a vector of refused lanes.

    Returns ``(raised, changed)``: the new prices after one refusal raise
    with the exact scalar clamp order (floor first, then cap —
    max-then-min is identical for ``floor <= cap`` over these positive
    finite values), and the boolean mask of lanes whose price actually
    moved.  The one array definition of the raise: :func:`exchange_lanes`
    and the wide-class closed path of the shard planes
    (:meth:`repro.sim.shards._MarketPlane._closed_raises`) both call it.
    """
    raised = values * factor
    _np.maximum(raised, floor, out=raised)
    _np.minimum(raised, cap, out=raised)
    return raised, raised != values


def exchange_lanes(
    R, V, rows, costs, maxp, locked, free_at, now,
    factor, floor, cap, threshold, before_refusal=None,
):
    """One request-for-bid exchange over a class's lanes (Def. 4).

    The one array transcription of the scalar negotiation
    (:meth:`repro.allocation.qant.QantAllocator._negotiate` + ``_award``
    over :meth:`repro.core.qant.QantPricingAgent.quote`), shared by
    :class:`MarketTickDispatcher` and every shard market plane.  ``R``,
    ``V`` and ``costs`` are per lane (remaining supply, price, execution
    cost); ``maxp``, ``locked`` and ``free_at`` are per agent and read
    through ``rows``, the lanes' agent indices in ascending node-id
    order.  ``R``, ``V``, ``maxp`` and ``locked`` are updated in place;
    ``free_at`` is only read.

    Lanes with ``R >= 1`` offer.  The others refuse: steps 8-9 raise
    their price (:func:`refusal_raise`) and their agent's running
    maximum, then the Section 5.1 activation rule lets a refusing agent
    still *offer* while it is unlatched and its maximum is below
    ``threshold`` (``None``: supply is always enforced); at or above it
    the latch is set for the period.  The winner is the earliest
    estimated completion ``max(free_at, now) + cost`` among the offers —
    first-occurrence ``argmin``, i.e. the scalar strict-``<`` lowest-id
    tie-break — and pays one unit of supply if it had one.

    ``before_refusal()`` runs before ``maxp`` / ``locked`` are read, only
    when some lane refuses (the dispatcher's lazy gather of those arrays).

    Returns ``(winner, paid, finish, refusals)``: the winning lane (-1
    when every lane refused), whether it paid a unit of supply, its
    estimated completion, and — ``None`` when nobody refused —
    ``(lanes, agent rows, moved)`` of the refusing lanes, ``moved`` the
    mask of those whose price changed (``None`` when none did).
    """
    offers = R >= 1.0
    refuse = _np.nonzero(~offers)[0]
    refusals = None
    if refuse.size:
        if before_refusal is not None:
            before_refusal()
        # Unchanged lanes are rewritten with identical bits, so the
        # scatter stays exact.
        new, changed = refusal_raise(V[refuse], factor, floor, cap)
        V[refuse] = new
        rows_r = rows[refuse]
        m = maxp[rows_r]
        if changed.any():
            # `maximum` matches the scalar `new > m` keep-or-replace:
            # ties return the shared (positive) value bit-for-bit.
            m = _np.maximum(m, new)
            maxp[rows_r] = m
        else:
            changed = None
        refusals = refuse, rows_r, changed
        if threshold is not None:
            passed = ~locked[rows_r]
            passed &= m < threshold
            locked[rows_r] = ~passed
            offers[refuse] = passed
    if not offers.any():
        return -1, False, None, refusals
    # `maximum(free, now)` is the scalar `free if free > now else now`:
    # equal operands share one bit pattern (timestamps are non-negative,
    # so no -0.0/+0.0 split is observable).
    est = _np.maximum(free_at[rows], now)
    est += costs
    est = _np.where(offers, est, _np.inf)
    winner = int(est.argmin())
    paid = R[winner] >= 1.0
    if paid:
        R[winner] -= 1.0
    return winner, paid, est[winner], refusals


#: Widest class the shard planes price with the scalar twins below; wider
#: ones keep the array program.  Measured, not tuned (``make crossover``;
#: nproc 2, Python 3.11.7, numpy 2.4.6): us per exchange, array/scalar, by
#: refusing fraction @ activation threshold (full table: DESIGN.md 7.1)
#:   lanes    0@None  0.5@None    1@None     0@2.0   0.5@2.0     1@2.0
#:       2   5.4/0.6  10.9/0.7   7.0/0.6   5.5/0.7  13.9/0.7   9.3/0.6
#:       5   5.4/0.9  10.3/1.2   7.7/1.0   5.8/1.0  12.1/1.1  11.7/1.7
#:      16   5.8/1.9   9.5/2.4   7.1/2.6   5.5/1.8  11.5/2.3   8.9/2.8
#:      64   5.8/5.8  10.4/7.6   7.5/8.5   5.6/5.5  13.0/7.5   9.4/9.3
#: At least 2x faster in every column up to 16-24 lanes, slower from ~64.
SCALAR_LANES_MAX = 16


def scalar_lanes(R, V, rows, costs, maxp, locked, free_at):
    """:func:`exchange_lanes`'s array arguments as the scalar twin takes
    them: zero-copy ``memoryview``s (native Python floats / bools in and
    out) of the mutable arrays, list copies of the static two."""
    return (
        memoryview(R), memoryview(V), rows.tolist(), costs.tolist(),
        memoryview(maxp), memoryview(locked), memoryview(free_at),
    )


def exchange_lanes_scalar(
    R, V, rows, costs, maxp, locked, free_at, now,
    factor, floor, cap, threshold,
):
    """:func:`exchange_lanes` as one loop over the lanes: same arguments
    (through :func:`scalar_lanes`), same in-place updates, same
    ``(winner, paid, finish)``.

    Each lane sees the array program's float operations in the same
    order, and a class's lanes are distinct agents, so going lane by lane
    instead of step by step cannot show through ``maxp`` / ``locked``:
    bit-identical.
    """
    winner, best = -1, _INF
    for i, row in enumerate(rows):
        if R[i] < 1.0:
            new = V[i] * factor
            if new < floor:
                new = floor
            if new > cap:
                new = cap
            V[i] = new
            peak = maxp[row]
            if new > peak:
                maxp[row] = peak = new
            if threshold is None or locked[row]:
                continue
            if peak >= threshold:
                locked[row] = True
                continue
        est = free_at[row]
        if est < now:
            est = now
        est += costs[i]
        if est < best:
            winner, best = i, est
    if winner < 0:
        return -1, False, None
    paid = R[winner] >= 1.0
    if paid:
        R[winner] -= 1.0
    return winner, paid, best


def closed_raises_scalar(V, count, factor, floor, cap):
    """Up to ``count`` :func:`refusal_raise` steps over ``V`` in place, one
    multiplication at a time, stopping after the step that leaves every
    lane at ``cap``; returns ``(steps applied, whether that happened)``.
    """
    for done in range(1, count + 1):
        capped = True
        for i in range(len(V)):
            new = V[i] * factor
            if new < floor:
                new = floor
            if new > cap:
                new = cap
            V[i] = new
            if new != cap:
                capped = False
        if capped:
            return done, True
    return count, False


class BatchDispatchStats:
    """Counters of the vectorised bidding fan-out (see allocator stats)."""

    __slots__ = ("vector_exchanges", "scalar_fallbacks", "syncs", "gathers")

    def __init__(self) -> None:
        #: Request-for-bid exchanges answered on the vector path.
        self.vector_exchanges = 0
        #: Exchanges that had to drop to the scalar negotiation (partial
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

    ``ids``/``rows``/``costs``/``agents`` (and ``engine_rows``, once bound
    to a period engine) are static for the federation's lifetime;
    ``R``/``V``/``F``/``ACC`` (remaining supply, price values, refusal
    counts, accepted counts — column ``class_index`` of each agent's
    state) are gathered lazily per period and dropped to ``None`` when
    they are written back.
    """

    __slots__ = (
        "class_index", "ids", "rows", "costs", "agents", "engine_rows",
        "R", "V", "F", "ACC",
    )

    def __init__(self, class_index, ids, rows, costs, agents) -> None:
        self.class_index = class_index
        self.ids = ids
        self.rows = rows
        self.costs = costs
        self.agents = agents
        self.engine_rows = None
        self.R = None
        self.V = None
        self.F = None
        self.ACC = None


class MarketTickDispatcher:
    """Vectorised request-for-bid exchange over a full candidate set.

    Built by :class:`~repro.allocation.qant.QantAllocator` only when the
    whole fleet is dispatchable: numpy + fleet arrays available, no
    message faults, no partial adoption and no private classification,
    so every bidder is a plain :class:`~repro.core.qant.QantPricingAgent`.
    """

    def __init__(
        self,
        fleet,
        nodes: Mapping[int, object],
        candidates_by_class: Mapping[int, Sequence[int]],
        agents: Mapping[int, object],
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
        # Agent-global auxiliary state, one row per fleet slot.  Rows
        # whose node bids in no class keep a None agent and are never
        # touched.
        num_rows = len(fleet.node_ids)
        agents_by_row: List[object] = [None] * num_rows
        for class_index, ids in candidates_by_class.items():
            self._states[class_index] = _ClassState(
                class_index,
                _np.array(ids, dtype=_np.int64),
                _np.array([row_of[nid] for nid in ids], dtype=_np.intp),
                _np.array(
                    [nodes[nid]._costs[class_index] for nid in ids],
                    dtype=float,
                ),
                tuple(agents[nid] for nid in ids),
            )
            for nid in ids:
                agents_by_row[row_of[nid]] = agents[nid]
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
        A no-op while the snapshot is current.
        """
        if self._aux_fresh:
            return
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
                agents = st.agents
                st.R = _np.array([a._remaining[class_index] for a in agents])
                st.V = _np.array(
                    [a._price_values[class_index] for a in agents]
                )
                st.F = _np.array(
                    [a._refused[class_index] for a in agents],
                    dtype=_np.int64,
                )
                st.ACC = _np.array(
                    [a._accepted[class_index] for a in agents],
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
        path exactly as the scalar negotiation does).
        """
        st = self._live_state(class_index)
        winner, paid, _finish, refusals = exchange_lanes(
            st.R, st.V, st.rows, st.costs,
            self._aux_maxp, self._aux_locked, self._fleet.slot_free, now,
            self._factor, self._floor, self._cap, self._threshold,
            self._gather_aux,
        )
        if refusals is not None:
            # One refusal count per refusing bidder, one epoch step per
            # price that actually moved.
            refuse, rows_r, changed = refusals
            st.F[refuse] += 1
            if changed is not None:
                self._aux_delta[rows_r] += changed
        self.stats.vector_exchanges += 1
        if winner < 0:
            # All-refuse exchange; saturated iff every price is pinned at
            # the cap (with a threshold, the latch is then set on every
            # bidder too — maxp >= cap >= threshold for any sane config).
            return None, bool((st.V == self._cap).all())
        if paid:
            st.ACC[winner] += 1
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
        scalar listing would have left behind, and the next exchange
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
            for i, agent in enumerate(st.agents):
                agent._remaining[k] = r_list[i]
                agent._price_values[k] = v_list[i]
                agent._refused[k] = f_list[i]
                agent._accepted[k] = acc_list[i]
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
