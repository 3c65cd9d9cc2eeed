"""Vectorised market-tick dispatch for the QA-NT bidding fan-out.

PR 5's period engine batched the *boundary* (steps 12–14 + eq. 4); this
module batches the other scalar frontier: the per-query request-for-bid
exchange itself.  :class:`LaneBook` is the paper listing
(:meth:`repro.core.qant.QantPricingAgent.quote` over a class's bidders,
earliest-completion winner, accept) as one class's lanes for one period:
arrays, plus the set of refusing lanes that can still move — inside a
period supply only falls and latches only set, so a refusing lane at the
price cap is *settled* until the boundary and an exchange prices the
live ones only, then takes one masked ``argmin``.  Two callers:
:class:`MarketTickDispatcher`, whose per-class state *is* a book over
lanes gathered from the class's agents (the fleet's ``slot_free`` mirror
as busy clocks, the agents' refusal-count / price-epoch bookkeeping), and
every shard market plane, over views of its flat lane block.  A numpy
call costs microseconds at any width, so a live set of up to
:data:`SCALAR_LANES_MAX` lanes is priced by a loop over ``memoryview``s,
and planes price whole classes that narrow through the scalar twins
:func:`exchange_lanes_scalar` / :func:`closed_raises_scalar`, under the
same property test.

Bit-identity contract: every float is produced by the same IEEE-754
operation sequence as the scalar listing, so goldens must not move with
the dispatcher active.  A class's lanes are copies, gathered at most once per
period from whichever side holds the market state (DESIGN.md §5.2) and
returned the same way: :meth:`MarketTickDispatcher.sync` overlays them
onto the agents' live lists (the allocator calls it from
``sync_market_state`` and at a boundary that finds the agents live),
:meth:`MarketTickDispatcher.close_period` hands them back to a bound
period engine's matrices at a boundary nobody observed.  The book's
``live`` / ``offers`` are derived from them at every gather, never stored.

The auxiliary arrays are *agent-global* (indexed by fleet row), not
per-class: an agent bidding in several classes shares one ``max_price``,
one price epoch and one enforce latch across all of them, so raises from
class *j*'s exchange must be visible to class *k*'s threshold test
without a scatter/gather round trip.
"""

from __future__ import annotations

from contextlib import contextmanager
from math import inf as _INF
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "BatchDispatchStats",
    "MarketTickDispatcher",
    "LaneBook",
    "SCALAR_LANES_MAX",
    "check_raise_terms",
    "closed_raises_scalar",
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
    moved.  The one array definition of the raise: :class:`LaneBook` and
    the wide-class closed path of the shard planes
    (:meth:`repro.sim.shards._MarketPlane._closed_raises`) both call it.
    """
    raised = values * factor
    np.maximum(raised, floor, out=raised)
    np.minimum(raised, cap, out=raised)
    return raised, raised != values


def check_raise_terms(raise_factor: float, price_cap: float) -> None:
    """Refuse raise terms under which a lane at the cap could move again:
    a settled lane (:class:`LaneBook`) is skipped because ``cap * factor``
    clamps straight back to ``cap``.  ``QantParameters`` cannot produce
    these, but the dispatcher and the shard planes take raw floats."""
    if not raise_factor > 1.0:
        raise ValueError("raise_factor must be > 1.0, got %r" % (raise_factor,))
    if not 0.0 < price_cap < _INF:
        raise ValueError(
            "price_cap must be positive and finite, got %r" % (price_cap,)
        )


class LaneBook:
    """One class's lanes for one period: the array spelling of Def. 4.

    The scalar negotiation (:meth:`repro.allocation.qant.QantAllocator
    ._negotiate` + ``_award`` over :meth:`repro.core.qant.QantPricingAgent
    .quote`), shared by :class:`MarketTickDispatcher` and every shard
    market plane.  ``R``, ``V`` and ``costs`` are per lane (remaining
    supply, price, execution cost); ``maxp``, ``locked`` and ``epochs``
    are per agent and reached through ``rows``, the lanes' agent indices
    in ascending node-id order (a class's lanes are distinct agents).
    All but ``rows`` / ``costs`` are written in place.

    Lanes with ``R >= 1`` offer.  The others refuse: steps 8-9 raise
    their price (:func:`refusal_raise`) and their agent's running
    maximum, then the Section 5.1 activation rule lets a refusing agent
    still *offer* while it is unlatched and its maximum is below
    ``threshold`` (``None``: supply is always enforced); at or above it
    the latch is set for the period.

    Until the next :meth:`arm` supply only falls and latches only set, so
    a refusing lane at the cap whose agent is latched (or has no
    threshold to pass) is **settled**: the raise clamps back to the cap
    and the latch test has nothing left to decide.  Two pieces of derived
    state, rebuilt by :meth:`arm`, carry that: ``offers``, each lane's
    answer in the latest exchange, and ``live``, the refusing lanes not
    yet seen settled, the only ones an exchange prices.  ``live`` starts
    at every refusing lane (the first exchange does the settling), grows
    by a winner that sells its last unit, after the exchange it won, and
    shrinks when pricing finds a lane settled.
    """

    __slots__ = (
        "rows", "costs", "R", "V", "offers", "live", "_exchanges",
        "_since", "_maxp", "_locked", "_epochs", "_terms", "_scalar_max",
        "_agent_views", "_lane_views",
    )

    def __init__(
        self, rows, costs, maxp, locked, factor, floor, cap, threshold,
        epochs=None,
    ) -> None:
        """``epochs`` (optional, per agent) takes one step per raise that
        changed a lane's price."""
        self.rows = rows
        self.costs = costs
        self._maxp = maxp
        self._locked = locked
        self._epochs = epochs
        self._terms = factor, floor, cap, threshold
        # Read once, like the planes' own width test: a live set of at
        # most this many lanes is priced by the loop, not by array steps.
        self._scalar_max = SCALAR_LANES_MAX
        self._agent_views = (
            rows.tolist(), memoryview(maxp), memoryview(locked),
            None if epochs is None else memoryview(epochs),
        )
        self.R = self.V = self.offers = self.live = None

    def arm(self, R, V) -> None:
        """Open a period over supply ``R`` and prices ``V``."""
        self.R = R
        self.V = V
        self.offers = offers = R >= 1.0
        self.live = np.flatnonzero(~offers)
        # Exchanges since the arm, and per lane the count at which it
        # began to refuse (-1: it still has supply).
        self._exchanges = 0
        self._since = np.where(offers, -1, 0)
        self._lane_views = memoryview(V), memoryview(offers)

    def refusals(self):
        """Per lane, the exchanges it has refused since :meth:`arm`: every
        one since it ran out of supply."""
        since = self._since
        return np.where(since < 0, 0, self._exchanges - since)

    def estimates(self, free_at, now):
        """Per lane, the estimated completion ``max(free_at, now) + cost``
        of a query awarded at ``now`` (``free_at`` is per agent)."""
        # `maximum(free, now)` is the scalar `free if free > now else now`:
        # equal operands share one bit pattern (timestamps are non-negative,
        # so no -0.0/+0.0 split is observable).
        est = np.maximum(free_at[self.rows], now)
        est += self.costs
        return est

    def exchange(self, estimates):
        """One request-for-bid exchange over :meth:`estimates` (finite,
        only read).

        The winner is the earliest estimated completion among the offers
        — first-occurrence ``argmin``, i.e. the scalar strict-``<``
        lowest-id tie-break — and pays one unit of supply if it had one.
        Returns ``(winner, paid, finish)``: the winning lane (-1 when
        every lane refused; ``live`` is then empty iff every price sits
        at the cap), whether it paid, and its estimated completion.
        """
        self._exchanges += 1
        live = self.live
        if len(live) > self._scalar_max:
            self._price_many(live)
        elif len(live):
            self._price_few(live)
        est = np.where(self.offers, estimates, _INF)
        winner = int(est.argmin())
        finish = est[winner]
        if finish == _INF:
            return -1, False, None
        R = self.R
        paid = R[winner] >= 1.0
        if paid:
            R[winner] = left = R[winner] - 1.0
            if left < 1.0:
                # Sold out by this exchange: it refuses from the next on.
                self.live = np.append(self.live, winner)
                self._since[winner] = self._exchanges
        return winner, paid, finish

    def _price_many(self, live) -> None:
        """Raise, running maximum, activation test and settling of the
        ``live`` lanes as array steps."""
        factor, floor, cap, threshold = self._terms
        # Unchanged lanes are rewritten with identical bits, so the
        # scatter stays exact.
        new, changed = refusal_raise(self.V[live], factor, floor, cap)
        self.V[live] = new
        rows = self.rows[live]
        peak = self._maxp[rows]
        if changed.any():
            # `maximum` matches the scalar `new > peak` keep-or-replace:
            # ties return the shared (positive) value bit-for-bit.
            peak = np.maximum(peak, new)
            self._maxp[rows] = peak
            if self._epochs is not None:
                self._epochs[rows] += changed
        settled = new == cap
        if threshold is None:
            self.offers[live] = False
        else:
            passed = ~self._locked[rows]
            passed &= peak < threshold
            self._locked[rows] = ~passed
            self.offers[live] = passed
            settled &= ~passed
        if settled.any():
            self.live = live[~settled]

    def _price_few(self, live) -> None:
        """:meth:`_price_many` as one loop over ``memoryview``s: each lane
        sees the same float operations in the same order, and the lanes
        are distinct agents, so going lane by lane instead of step by
        step cannot show through ``maxp`` / ``locked``."""
        factor, floor, cap, threshold = self._terms
        V, offers = self._lane_views
        rows, maxp, locked, epochs = self._agent_views
        lanes = live.tolist()
        settled = False
        for i in lanes:
            old = V[i]
            new = old * factor
            if new < floor:
                new = floor
            if new > cap:
                new = cap
            row = rows[i]
            if new != old:
                V[i] = new
                if epochs is not None:
                    epochs[row] += 1
            peak = maxp[row]
            if new > peak:
                maxp[row] = peak = new
            if threshold is None or locked[row]:
                passed = False
            elif peak >= threshold:
                locked[row] = True
                passed = False
            else:
                passed = True
            offers[i] = passed
            if new == cap and not passed:
                settled = True
        if settled:
            self.live = np.array(
                [i for i in lanes if offers[i] or V[i] != cap], dtype=np.intp
            )


#: Widest class the shard planes price with the scalar twins below, and
#: widest live set a :class:`LaneBook` prices lane by lane; wider ones take
#: array steps.  Measured, not tuned (``make crossover``; nproc 2, Python
#: 3.11.7, numpy 2.4.6): us per exchange, book/scalar twin, threshold 2.0,
#: by refusing fraction (settled fraction of those); full tables, and the
#: book's loop against its array steps, in DESIGN.md 7.1
#:   lanes      0(0)    0.5(0)  0.5(0.9)      1(0)    1(0.9)
#:       2   2.8/0.7   3.5/0.8   2.7/0.7   3.1/0.6   2.4/0.6
#:       5   2.9/0.9   3.4/1.0   2.7/1.1   4.1/1.2   3.0/1.1
#:      16   3.0/1.7   4.9/2.4   3.6/2.3   6.1/2.8   3.4/2.7
#:      24   2.7/2.6   5.4/3.5   3.3/3.2  11.6/3.9   3.5/3.5
#:      64   2.8/5.4  12.3/7.9   4.0/7.6  12.3/10.0  4.0/9.1
#: The twin wins every column up to 16 lanes and breaks even on the
#: settled ones at 24; the book's loop beats its array steps up to ~40.
SCALAR_LANES_MAX = 16


def scalar_lanes(R, V, rows, costs, maxp, locked, free_at):
    """A narrow class's arrays as the scalar twin takes them: zero-copy
    ``memoryview``s (native Python floats / bools in and out) of the
    mutable arrays, list copies of the static two."""
    return (
        memoryview(R), memoryview(V), rows.tolist(), costs.tolist(),
        memoryview(maxp), memoryview(locked), memoryview(free_at),
    )


def exchange_lanes_scalar(
    R, V, rows, costs, maxp, locked, free_at, now,
    factor, floor, cap, threshold,
):
    """A whole :class:`LaneBook` exchange — pricing, estimates, winner,
    payment — as one loop over every lane of a narrow class: arguments
    through :func:`scalar_lanes` (``free_at`` per agent, read at ``now``),
    same in-place updates, same ``(winner, paid, finish)``.

    Each lane sees the book's float operations in the same order, and a
    class's lanes are distinct agents, so going lane by lane instead of
    step by step cannot show through ``maxp`` / ``locked``: bit-identical.
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

    __slots__ = (
        "vector_exchanges", "scalar_fallbacks", "syncs", "gathers",
        "lane_steps", "estimate_reuses",
    )

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
        #: Live lanes priced, summed over the vector exchanges (a refusing
        #: lane already settled for the period is not priced again).
        self.lane_steps = 0
        #: Vector exchanges that reused their batch's completion estimates.
        self.estimate_reuses = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class _ClassState(LaneBook):
    """One class's candidate fan-out: its lane book plus the bookkeeping
    of the agents behind the lanes.

    ``ids``/``rows``/``costs``/``agents`` (and ``engine_rows``, once bound
    to a period engine) are static for the federation's lifetime;
    ``R``/``V``/``F``/``ACC`` (remaining supply, price values, refusal
    counts at the gather, accepted counts — column ``class_index`` of each
    agent's state) are gathered lazily per period and dropped to ``None``
    when they are written back.  The refusals since the gather are the
    book's (:meth:`LaneBook.refusals`).
    """

    __slots__ = ("class_index", "ids", "agents", "engine_rows", "F", "ACC")

    def __init__(self, class_index, ids, agents, *book) -> None:
        super().__init__(*book)
        self.class_index = class_index
        self.ids = ids
        self.agents = agents
        self.engine_rows = None
        self.F = self.ACC = None

    def drop(self) -> None:
        self.R = self.V = self.offers = self.live = self.F = self.ACC = None


class MarketTickDispatcher:
    """Vectorised request-for-bid exchange over a full candidate set.

    Built by :class:`~repro.allocation.qant.QantAllocator` only when the
    whole fleet is dispatchable: no message faults, no partial adoption
    and no private classification, so every bidder is a plain
    :class:`~repro.core.qant.QantPricingAgent`.
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
        check_raise_terms(raise_factor, price_cap)
        self._fleet = fleet
        self._threshold = activation_threshold
        self.stats = BatchDispatchStats()
        row_of = fleet.row_of
        # Agent-global auxiliary state, one row per fleet slot (running
        # maximum, enforce latch, price-epoch steps since the gather).
        # Rows whose node bids in no class keep a None agent and are
        # never touched.
        num_rows = len(fleet.node_ids)
        self._aux_maxp = np.zeros(num_rows, dtype=float)
        self._aux_locked = np.zeros(num_rows, dtype=bool)
        self._aux_delta = np.zeros(num_rows, dtype=np.int64)
        self._aux_fresh = False
        self._states: Dict[int, _ClassState] = {}
        agents_by_row: List[object] = [None] * num_rows
        for class_index, ids in candidates_by_class.items():
            self._states[class_index] = _ClassState(
                class_index,
                list(ids),
                tuple(agents[nid] for nid in ids),
                np.array([row_of[nid] for nid in ids], dtype=np.intp),
                np.array(
                    [nodes[nid]._costs[class_index] for nid in ids],
                    dtype=float,
                ),
                self._aux_maxp, self._aux_locked,
                raise_factor, price_floor, price_cap, activation_threshold,
                self._aux_delta,
            )
            for nid in ids:
                agents_by_row[row_of[nid]] = agents[nid]
        self._aux_agents = agents_by_row
        #: Inside one `assign_batch`: class -> its lanes' completion
        #: estimates (the batch shares one timestamp and schedules its
        #: commits after it returns, so `slot_free` cannot move under
        #: them); a re-gather drops its class's.  ``None`` outside a
        #: batch: single assigns recompute.
        self._estimates: Optional[Dict[int, object]] = None
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
            st.engine_rows = np.array(
                [engine_row_of[nid] for nid in st.ids], dtype=np.intp
            )
        self._engine_fleet_rows = np.array(
            [row_of[nid] for nid in node_ids], dtype=np.intp
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
                st.arm(*self._engine.lanes(st.engine_rows, class_index))
                st.F = np.zeros(len(st.ids), dtype=np.int64)
                st.ACC = np.zeros(len(st.ids), dtype=np.int64)
            else:
                agents = st.agents
                st.arm(
                    np.array([a._remaining[class_index] for a in agents]),
                    np.array([a._price_values[class_index] for a in agents]),
                )
                st.F = np.array(
                    [a._refused[class_index] for a in agents],
                    dtype=np.int64,
                )
                st.ACC = np.array(
                    [a._accepted[class_index] for a in agents],
                    dtype=np.int64,
                )
            if self._estimates:
                # Estimates never outlive the lanes they were made next
                # to: whoever dropped those (`sync`, a boundary) may have
                # let the clocks move.
                self._estimates.pop(class_index, None)
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
        stats = self.stats
        stats.vector_exchanges += 1
        live = len(st.live)
        if live:
            # The book is about to read `maxp` / `locked`.
            self._gather_aux()
            stats.lane_steps += live
        cache = self._estimates
        estimates = None if cache is None else cache.get(class_index)
        if estimates is not None:
            stats.estimate_reuses += 1
        else:
            estimates = st.estimates(self._fleet.slot_free, now)
            if cache is not None:
                cache[class_index] = estimates
        winner, paid, _finish = st.exchange(estimates)
        if winner < 0:
            # All-refuse exchange: no lane has supply and, under a
            # threshold, every bidder was just found or set latched.  So
            # every lane at the cap has settled, and the class is
            # saturated iff none is left live.
            return None, not len(st.live)
        if paid:
            st.ACC[winner] += 1
        return st.ids[winner], False

    @contextmanager
    def batch(self):
        """Reuse each class's completion estimates (see ``_estimates``)
        inside the ``with`` block; the caller leaves it before any commit."""
        self._estimates = {}
        try:
            yield
        finally:
            self._estimates = None

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
            st.drop()
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
            f_list = (st.F + st.refusals()).tolist()
            acc_list = st.ACC.tolist()
            for i, agent in enumerate(st.agents):
                agent._remaining[k] = r_list[i]
                agent._price_values[k] = v_list[i]
                agent._refused[k] = f_list[i]
                agent._accepted[k] = acc_list[i]
            st.drop()
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
