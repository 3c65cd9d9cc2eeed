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
lanes gathered from the period engine's matrices (the fleet's
``slot_free`` mirror as busy clocks, per-agent price-epoch steps), and
every shard market plane, over views of its flat lane block.  A numpy
call costs microseconds at any width, so a live set of up to
:data:`SCALAR_LANES_MAX` lanes is priced by a loop over ``memoryview``s,
and planes price whole classes that narrow through the scalar twins
:func:`exchange_lanes_scalar` / :func:`closed_raises_scalar`, under the
same property test.

Bit-identity contract: every float is produced by the same IEEE-754
operation sequence as the scalar listing, so goldens must not move with
the dispatcher active.  The dispatcher exists only for array runs
(DESIGN.md §5.2): a class's lanes are copies, gathered at most once per
period from the period engine's matrices and handed back to them by
:meth:`MarketTickDispatcher.close_period`, at every boundary and once at
the end of the run.  The book's ``live`` / ``offers`` are derived from
them at every gather, never stored.

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
        "rows", "costs", "R", "V", "offers", "live", "_maxp", "_locked",
        "_epochs", "_terms", "_scalar_max", "_agent_views", "_lane_views",
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
        self._lane_views = memoryview(V), memoryview(offers)

    def estimates(self, free_at, now):
        """Per lane, the estimated completion ``max(free_at, now) + cost``
        of a query awarded at ``now`` (``free_at`` is per agent)."""
        # `maximum(free, now)` is the scalar `free if free > now else now`:
        # equal operands share one bit pattern (timestamps are non-negative,
        # so no -0.0/+0.0 split is observable).
        est = np.maximum(free_at[self.rows], now)
        est += self.costs
        return est

    def exchange(self, estimates, reached=None):
        """One request-for-bid exchange over :meth:`estimates` (finite,
        only read) among the lanes of the boolean mask ``reached`` (every
        lane when ``None``).

        A lane the request did not reach is neither priced nor counted as
        an offer, and stays live: it has not answered, so it cannot have
        settled.  The winner is the earliest estimated completion among
        the offers — first-occurrence ``argmin``, i.e. the scalar
        strict-``<`` lowest-id tie-break — and pays one unit of supply if
        it had one.  Returns ``(winner, paid, finish)``: the winning lane
        (-1 when every reached lane refused; with every lane reached,
        ``live`` is then empty iff every price sits at the cap), whether
        it paid, and its estimated completion.
        """
        live = self.live
        priced = live if reached is None else live[reached[live]]
        kept = None
        if len(priced) > self._scalar_max:
            kept = self._price_many(priced)
        elif len(priced):
            kept = self._price_few(priced)
        if kept is not None:
            self.live = (
                kept if reached is None
                else np.concatenate((live[~reached[live]], kept))
            )
        offers = self.offers if reached is None else self.offers & reached
        est = np.where(offers, estimates, _INF)
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
        return winner, paid, finish

    def _price_many(self, live):
        """Raise, running maximum, activation test and settling of the
        ``live`` lanes as array steps; returns those not settled, or
        ``None`` when none settled."""
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
        return live[~settled] if settled.any() else None

    def _price_few(self, live):
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
        if not settled:
            return None
        return np.array(
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
        "vector_exchanges", "syncs", "gathers", "lane_steps",
        "estimate_reuses",
    )

    def __init__(self) -> None:
        #: Request-for-bid exchanges answered on the vector path (partial
        #: fan-outs of an outage window included).
        self.vector_exchanges = 0
        #: Hand-backs of cached lanes into the period engine's arrays.
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
    """One class's candidate fan-out: its lane book plus where its lanes
    live in the period engine.

    ``ids``/``rows``/``costs``/``engine_rows`` are static for the
    federation's lifetime; ``R``/``V`` (remaining supply and prices,
    column ``class_index`` of the engine's matrices) are gathered lazily
    per period and dropped to ``None`` when they are handed back.
    """

    __slots__ = ("class_index", "ids", "engine_rows")

    def __init__(self, class_index, ids, engine_rows, *book) -> None:
        super().__init__(*book)
        self.class_index = class_index
        self.ids = ids
        self.engine_rows = engine_rows

    def drop(self) -> None:
        self.R = self.V = self.offers = self.live = None


class MarketTickDispatcher:
    """Vectorised request-for-bid exchange over the lanes of a period
    engine that manages every bidder.

    Built by :class:`~repro.allocation.qant.QantAllocator` only for an
    array run: no message faults, no partial adoption, no private
    classification and a batched supply solver, so every bidder is a
    plain :class:`~repro.core.qant.QantPricingAgent` and row *i* of
    ``engine`` is ``node_ids[i]``.  Between ``on_run_start`` and
    ``on_run_end`` the engine's matrices and this dispatcher's lanes are
    the market; the agent objects are not read or written.
    """

    def __init__(
        self,
        fleet,
        nodes: Mapping[int, object],
        candidates_by_class: Mapping[int, Sequence[int]],
        engine,
        node_ids: Sequence[int],
        activation_threshold: Optional[float],
        raise_factor: float,
        price_floor: float,
        price_cap: float,
    ) -> None:
        check_raise_terms(raise_factor, price_cap)
        self._fleet = fleet
        self._engine = engine
        self.stats = BatchDispatchStats()
        row_of = fleet.row_of
        engine_row_of = {nid: i for i, nid in enumerate(node_ids)}
        #: The fleet row of each engine row.
        self._engine_fleet_rows = np.array(
            [row_of[nid] for nid in node_ids], dtype=np.intp
        )
        # Agent-global auxiliary state, one row per fleet slot (running
        # maximum, enforce latch, price-epoch steps since the gather).
        # Rows whose node bids in no class are never touched.
        num_rows = len(fleet.node_ids)
        self._aux_maxp = np.zeros(num_rows, dtype=float)
        self._aux_locked = np.zeros(num_rows, dtype=bool)
        self._aux_delta = np.zeros(num_rows, dtype=np.int64)
        self._aux_fresh = False
        self._states: Dict[int, _ClassState] = {
            class_index: _ClassState(
                class_index,
                list(ids),
                np.array([engine_row_of[nid] for nid in ids], dtype=np.intp),
                np.array([row_of[nid] for nid in ids], dtype=np.intp),
                np.array(
                    [nodes[nid]._costs[class_index] for nid in ids],
                    dtype=float,
                ),
                self._aux_maxp, self._aux_locked,
                raise_factor, price_floor, price_cap, activation_threshold,
                self._aux_delta,
            )
            for class_index, ids in candidates_by_class.items()
        }
        #: Inside one `assign_batch`: class -> its lanes' completion
        #: estimates (the batch shares one timestamp and schedules its
        #: commits after it returns, so `slot_free` cannot move under
        #: them); a re-gather drops its class's.  ``None`` outside a
        #: batch: single assigns recompute.
        self._estimates: Optional[Dict[int, object]] = None

    # -- gather ---------------------------------------------------------------

    def _gather_aux(self) -> None:
        """Snapshot every agent's max price and enforce latch.

        Both are the boundary's own baseline: no price has moved yet this
        period (the first refusal brings us here) and every latch is open.
        From here on the exchanges maintain them incrementally, which
        stays exact because prices only rise within a period and every
        raise updates the running maximum.  A no-op while the snapshot is
        current.
        """
        if self._aux_fresh:
            return
        self._aux_maxp[self._engine_fleet_rows] = self._engine.max_prices()
        self._aux_locked[:] = False
        self._aux_delta[:] = 0
        self._aux_fresh = True

    def _live_state(self, class_index: int) -> _ClassState:
        st = self._states[class_index]
        if st.R is None:
            # The boundary's own baseline: supply and prices as the
            # engine left them.
            st.arm(*self._engine.lanes(st.engine_rows, class_index))
            if self._estimates:
                # Estimates never outlive the lanes they were made next
                # to: whoever dropped those (a boundary) let the clocks
                # move.
                self._estimates.pop(class_index, None)
            self.stats.gathers += 1
        return st

    # -- the exchange ---------------------------------------------------------

    def exchange(
        self, class_index: int, now: float, reached=None
    ) -> Tuple[Optional[int], bool]:
        """One request-for-bid exchange at time ``now`` over the class's
        bidders in ``reached`` (all of them when ``None``).

        Returns ``(chosen_node_id, saturated)``: the winning node (supply
        consumed, like the scalar accept) or ``None`` when every reached
        bidder refused, with ``saturated`` flagging the all-refuse full
        fan-out whose every price sits at the cap (the caller arms its
        saturation fast path exactly as the scalar negotiation does).
        """
        st = self._live_state(class_index)
        stats = self.stats
        stats.vector_exchanges += 1
        mask = None
        if reached is not None:
            mask = np.isin(st.ids, reached)
        live = st.live
        if len(live):
            # The book is about to read `maxp` / `locked`.
            self._gather_aux()
            stats.lane_steps += (
                len(live) if mask is None else int(mask[live].sum())
            )
        cache = self._estimates
        estimates = None if cache is None else cache.get(class_index)
        if estimates is not None:
            stats.estimate_reuses += 1
        else:
            estimates = st.estimates(self._fleet.slot_free, now)
            if cache is not None:
                cache[class_index] = estimates
        winner, _paid, _finish = st.exchange(estimates, mask)
        if winner < 0:
            # All-refuse exchange: no reached lane has supply and, under a
            # threshold, every reached bidder was just found or set
            # latched.  A full fan-out has settled every lane at the cap,
            # so the class is saturated iff none is left live.
            return None, mask is None and not len(st.live)
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

    # -- hand-back ------------------------------------------------------------

    def close_period(self) -> None:
        """Return the cached lanes to the engine's arrays: supply, prices
        and the epoch deltas go back; the running maxima and latches are
        dropped (a boundary resets them; at the end of a run
        :meth:`latched_rows` reads them first)."""
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

    def latched_rows(self) -> List[int]:
        """Engine rows whose enforce latch this period's exchanges set."""
        if not self._aux_fresh:
            return []
        return np.flatnonzero(
            self._aux_locked[self._engine_fleet_rows]
        ).tolist()

    def overlay(self, prices) -> None:
        """Lay this period's cached price lanes over ``prices`` (a copy of
        the engine's price matrix) in place."""
        for st in self._states.values():
            if st.R is not None:
                prices[st.engine_rows, st.class_index] = st.V
