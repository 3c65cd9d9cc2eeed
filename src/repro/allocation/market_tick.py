"""Vectorised market-tick dispatch for the QA-NT bidding fan-out.

PR 5's period engine batched the *boundary* (steps 12–14 + eq. 4); this
module batches the other scalar frontier: the per-query request-for-bid
exchange itself.  :class:`LaneBook` is the paper listing
(:meth:`repro.core.qant.QantPricingAgent.quote` over a class's bidders,
earliest-completion winner, accept) as one class's lanes for one period:
arrays, plus the set of refusing lanes that can still move — inside a
period supply only falls and latches only set, so a refusing lane at the
price cap is *settled* until the boundary and an exchange prices the
live ones only, then takes one masked ``argmin``.  A numpy call costs
microseconds at any width, so a live set of up to
:data:`SCALAR_LANES_MAX` lanes is priced by a loop over ``memoryview``s,
and a class that narrow is priced whole by the scalar twin
:func:`exchange_lanes_scalar`, under the same property test.

:class:`LaneBlock` is the one layout of in-run market state: the flat
lanes of a set of classes over agent rows, a book or a twin per class,
and each agent's running maximum and enforce latch.  Both market engines
hold one.  Every shard market plane builds it over its own arrays, and
:class:`MarketTickDispatcher` over the single-process period engine's
lanes, so the dispatcher's books *are* the engine's state: nothing is
gathered from it or handed back to it.

Bit-identity contract: every float is produced by the same IEEE-754
operation sequence as the scalar listing, so goldens must not move.
Every QA-NT exchange of the single-process engine runs here (DESIGN.md
§5.2); the listing itself serves the SQLite nodes and the tests.

The per-agent arrays are *agent-global* (indexed by agent row), not
per-class: an agent bidding in several classes shares one ``max_price``
and one enforce latch across all of them, so raises from class *j*'s
exchange must be visible to class *k*'s threshold test without a
scatter/gather round trip.
"""

from __future__ import annotations

from contextlib import contextmanager
from math import inf as _INF
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "BatchDispatchStats",
    "LaneBlock",
    "LaneBook",
    "MarketTickDispatcher",
    "SCALAR_LANES_MAX",
    "check_raise_terms",
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
    the wide-class path of :meth:`LaneBlock.closed_raises` both call it.
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

    The paper listing (:meth:`repro.core.qant.QantPricingAgent.quote`
    over a class's bidders, earliest-completion winner, ``accept``) for a
    class wider than :data:`SCALAR_LANES_MAX`.  ``R``, ``V`` and
    ``costs`` are per lane (remaining supply, price, execution cost);
    ``maxp`` and ``locked`` are per agent and reached through ``rows``,
    the lanes' agent indices in ascending node-id order (a class's lanes
    are distinct agents).  All but ``rows`` / ``costs`` are written in
    place.

    Lanes with ``R >= 1`` offer.  The others refuse: steps 8-9 raise
    their price (:func:`refusal_raise`) and the agent's running maximum;
    then the Section 5.1 activation rule lets a refusing agent still
    *offer* while it is unlatched and its maximum is below ``threshold``
    (``None``: supply is always enforced); at or above it the latch is
    set for the period.

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
        "_terms", "_scalar_max", "_agent_views", "_lane_views",
    )

    def __init__(
        self, rows, costs, maxp, locked, factor, floor, cap, threshold,
    ) -> None:
        self.rows = rows
        self.costs = costs
        self._maxp = maxp
        self._locked = locked
        self._terms = factor, floor, cap, threshold
        # Read once, like the block's width test: a live set of at most
        # this many lanes is priced by the loop, not by array steps.
        self._scalar_max = SCALAR_LANES_MAX
        self._agent_views = rows.tolist(), memoryview(maxp), memoryview(locked)
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
        rows, maxp, locked = self._agent_views
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


#: Widest class :class:`LaneBlock` prices with the scalar twin, and widest
#: live set a :class:`LaneBook` prices lane by lane; wider ones take array
#: steps.  Measured, not tuned (``make crossover``, least of three runs;
#: nproc 2, Python 3.11.7, numpy 2.4.6): us per exchange, book/scalar
#: twin, threshold 2.0, by refusing fraction (settled fraction of those);
#: full tables, and the book's loop against its array steps, in DESIGN.md
#: 7.1
#:   lanes      0(0)    0.5(0)  0.5(0.9)      1(0)    1(0.9)
#:       2   3.1/0.7   3.8/0.9   3.2/0.8   3.6/0.8   2.9/0.7
#:       5   3.2/1.1   4.1/1.3   3.2/1.2   4.4/1.4   3.5/1.2
#:      16   3.1/2.1   5.4/3.1   3.8/2.7   6.7/3.4   3.7/2.9
#:      24   3.3/2.9   6.2/4.1   3.8/3.7  12.4/4.9   3.8/4.1
#:      64   3.2/6.7  12.3/9.4   4.4/8.4  12.4/12.1  4.8/9.6
#: The twin wins every column up to 16 lanes (masked exchanges at every
#: width measured, to 128) and breaks even on the settled ones at 24;
#: the book's loop beats its array steps up to ~32-40.
SCALAR_LANES_MAX = 16


def scalar_lanes(R, V, rows, costs):
    """A narrow class's lanes as the scalar twin takes them: zero-copy
    ``memoryview``s (native Python numbers in and out) of the mutable
    two, list copies of the static two.  The twin's per-agent arrays are
    ``memoryview``s too, made once and shared by every class."""
    return memoryview(R), memoryview(V), rows.tolist(), costs.tolist()


def exchange_lanes_scalar(
    R, V, rows, costs, maxp, locked, free_at, reached, now,
    factor, floor, cap, threshold,
):
    """A whole :class:`LaneBook` exchange — pricing, estimates, winner,
    payment — as one loop over the lanes of a narrow class that
    ``reached`` (one truth value per lane) marks: lanes through
    :func:`scalar_lanes` (``free_at`` per agent, read at ``now``), same
    in-place updates, same ``(winner, paid, finish)``.  An unreached lane
    is skipped: neither priced nor an offer.

    Each lane sees the book's float operations in the same order, and a
    class's lanes are distinct agents, so going lane by lane instead of
    step by step cannot show through ``maxp`` / ``locked``: bit-identical.
    """
    winner, best = -1, _INF
    for i, row in enumerate(rows):
        if not reached[i]:
            continue
        if R[i] < 1.0:
            old = V[i]
            new = old * factor
            if new < floor:
                new = floor
            if new > cap:
                new = cap
            if new != old:
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


class LaneBlock:
    """The in-run market state of a set of classes: their lanes, laid out
    flat class after class over agent rows.

    ``V`` / ``R`` (price and remaining supply per lane) belong to the
    caller, which only ever writes them in place; ``prices[k]`` /
    ``supply[k]`` are class *k*'s views of them, ``members[k]`` /
    ``costs[k]`` its lanes' agent rows and execution costs.  Per agent
    row the block owns the running maximum ``maxp`` and the enforce latch
    ``locked``.  A class of up to :data:`SCALAR_LANES_MAX` lanes is
    priced by the scalar twin, a wider one by its :class:`LaneBook` in
    ``books``: the only read of the crossover outside the book itself.
    """

    __slots__ = (
        "V", "R", "rows", "prices", "supply", "members", "costs", "maxp",
        "locked", "books", "_twins", "_everyone", "_maxp_base", "_free_at",
        "_terms",
    )

    def __init__(
        self, V, R, rows, cols, costs, free_at, maxp_base,
        factor, floor, cap, threshold,
    ) -> None:
        """``rows`` / ``cols`` / ``costs`` are each lane's agent row,
        class and execution cost, class-major (a class's lanes are
        contiguous and distinct agents, in ascending row order).
        ``free_at`` (per agent row, only read) is when each agent's queue
        frees up.  ``maxp_base`` (per agent row) is the agent's largest
        price outside the lanes — those never move — and 0.0 for an agent
        whose every price is a lane."""
        self.V, self.R, self.rows = V, R, rows
        cuts = [0, *(np.flatnonzero(np.diff(cols)) + 1).tolist(), len(cols)]
        spans = {
            int(cols[a]): slice(a, b) for a, b in zip(cuts, cuts[1:]) if a < b
        }
        self.prices = {k: V[span] for k, span in spans.items()}
        self.supply = {k: R[span] for k, span in spans.items()}
        self.members = {k: rows[span] for k, span in spans.items()}
        self.costs = {k: costs[span] for k, span in spans.items()}
        self.maxp = np.zeros(len(maxp_base))
        self.locked = np.zeros(len(maxp_base), dtype=bool)
        self._maxp_base = maxp_base
        self._free_at = free_at
        self._terms = factor, floor, cap, threshold
        views = tuple(map(memoryview, (self.maxp, self.locked, free_at)))
        #: Narrow class -> the twin's leading arguments, bound once (so
        #: every array under them is only ever written in place).
        self._twins: Dict[int, Tuple] = {}
        #: Wide class -> its lane book, re-armed by every :meth:`rearm`.
        self.books: Dict[int, LaneBook] = {}
        for k, members in self.members.items():
            if len(members) <= SCALAR_LANES_MAX:
                self._twins[k] = (
                    *scalar_lanes(
                        self.supply[k], self.prices[k], members, self.costs[k]
                    ),
                    *views,
                )
            else:
                self.books[k] = LaneBook(
                    members, self.costs[k], self.maxp, self.locked,
                    *self._terms,
                )
        #: A full fan-out's ``reached`` for every narrow class.
        self._everyone = [True] * SCALAR_LANES_MAX

    def rearm(self) -> None:
        """Open a period: every latch open, each agent's running maximum
        its largest price, every book armed over its class's lanes."""
        self.locked[:] = False
        maxp = self.maxp
        maxp[:] = self._maxp_base
        np.maximum.at(maxp, self.rows, self.V)
        for k, book in self.books.items():
            book.arm(self.supply[k], self.prices[k])

    def exchange(self, k, now, reached=None, estimates=None, free_at=None):
        """One request-for-bid exchange on class ``k`` at ``now`` among
        the lanes of the boolean mask ``reached`` (every lane when
        ``None``).  ``estimates`` are a book class's completion estimates
        (:meth:`LaneBook.estimates`) when the caller already has them;
        ``free_at`` replaces the block's busy clocks for this exchange
        (an agent whose clock reads ``inf`` cannot win).

        Returns ``(row, finish, saturated)``: the winner's agent row (-1
        when every reached lane refused) and estimated completion, and
        whether an all-refuse *full* fan-out left every price at the cap.
        """
        twin = self._twins.get(k)
        if twin is None:
            book = self.books[k]
            if estimates is None:
                estimates = book.estimates(
                    self._free_at if free_at is None else free_at, now
                )
            winner, _paid, finish = book.exchange(estimates, reached)
            rows = book.rows
            # All refused, so a lane is still live iff it is below the cap.
            saturated = winner < 0 and reached is None and not len(book.live)
        else:
            if free_at is not None:
                twin = (*twin[:6], memoryview(free_at))
            winner, _paid, finish = exchange_lanes_scalar(
                *twin,
                self._everyone if reached is None else memoryview(reached),
                now, *self._terms,
            )
            rows = twin[2]
            # All refused, so every lane was just clamped to <= cap.
            saturated = (
                winner < 0 and reached is None
                and min(twin[1]) == self._terms[2]
            )
        if winner < 0:
            return -1, None, saturated
        return int(rows[winner]), finish, False

    def closed_raises(self, k, count):
        """``count`` exchanges on a *closed* class ``k`` (no lane has
        supply, every bidder is latched) as what they still do: the steps
        8-9 raise of its prices, one multiplication at a time, up to the
        step that leaves every lane at the cap.  Returns ``(steps
        applied, whether that happened)``.  ``maxp`` is not written: only
        latched agents would see the raise."""
        factor, floor, cap, _threshold = self._terms
        twin = self._twins.get(k)
        if twin is None:
            V = self.prices[k]
            done, saturated = 0, False
            while done < count and not saturated:
                V[:] = refusal_raise(V, factor, floor, cap)[0]
                done += 1
                saturated = bool((V == cap).all())
            return done, saturated
        V = twin[1]
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

    __slots__ = ("vector_exchanges", "syncs", "lane_steps", "estimate_reuses")

    def __init__(self) -> None:
        #: Request-for-bid exchanges answered on the vector path (partial
        #: fan-outs of an outage window included).
        self.vector_exchanges = 0
        #: Periods closed (by a boundary or by the end of the run) that saw
        #: at least one vector exchange.
        self.syncs = 0
        #: Live lanes a lane book priced, summed over its exchanges (a
        #: refusing lane already settled for the period is not priced
        #: again).  A narrow class's twin keeps no live set and adds none.
        self.lane_steps = 0
        #: Book exchanges that reused their batch's completion estimates
        #: (the twin computes its estimates inline and reuses none).
        self.estimate_reuses = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class MarketTickDispatcher:
    """Vectorised request-for-bid exchange over the lanes of a period
    engine that manages every bidder.

    Built by :class:`~repro.allocation.qant.QantAllocator` at every bind:
    its :class:`LaneBlock` is built over the engine's own lane arrays,
    with the fleet's ``slot_free`` mirror as busy clocks, so the engine's
    arrays and this block are one market from bind to the end: nothing
    is gathered or handed back, and the agent objects are only written
    when someone reads them.  That needs engine row *i* to be fleet row
    *i* and each class's lanes to be its candidates, as in every
    federation :func:`~repro.sim.federation.build_federation` makes; any
    other layout is refused at construction.
    """

    def __init__(
        self,
        fleet,
        candidates_by_class: Mapping[int, Sequence[int]],
        engine,
        node_ids: Sequence[int],
        activation_threshold: Optional[float],
        raise_factor: float,
        price_floor: float,
        price_cap: float,
    ) -> None:
        check_raise_terms(raise_factor, price_cap)
        if tuple(node_ids) != tuple(fleet.node_ids):
            raise ValueError(
                "the period engine's rows must be the fleet's rows, in order"
            )
        self._free_at = fleet.slot_free
        self._node_ids = node_ids
        self.stats = BatchDispatchStats()
        self.block = block = LaneBlock(
            engine.V, engine.R, engine.lane_rows, engine.lane_cols,
            engine.lane_costs, fleet.slot_free, engine.maxp_base,
            raise_factor, price_floor, price_cap, activation_threshold,
        )
        #: Class -> its lanes' node ids.
        self._ids = {
            k: tuple(node_ids[row] for row in rows.tolist())
            for k, rows in block.members.items()
        }
        if self._ids != {
            k: tuple(ids) for k, ids in candidates_by_class.items() if ids
        }:
            raise ValueError(
                "each class's lanes in the period engine must be its "
                "candidate nodes"
            )
        self._threshold = activation_threshold
        #: Whether a vector exchange ran since the last `close_period`.
        self._exchanged = False
        #: Inside one `assign_batch`: class -> its book's completion
        #: estimates (the batch shares one timestamp and schedules its
        #: commits after it returns, so `slot_free` cannot move under
        #: them).  ``None`` outside a batch: single assigns recompute.
        self._estimates: Optional[Dict[int, object]] = None

    def exchange(
        self, class_index: int, now: float, reached=None, free_at=None
    ) -> Tuple[Optional[int], bool]:
        """One request-for-bid exchange at time ``now`` over the class's
        bidders in ``reached`` (all of them when ``None``), with
        ``free_at`` in place of the busy clocks when given.

        Returns ``(chosen_node_id, saturated)``: the winning node (supply
        consumed, like the listing's accept) or ``None`` when every
        reached bidder refused, with ``saturated`` flagging the
        all-refuse full fan-out whose every price sits at the cap (the
        caller's saturation fast path).
        """
        stats = self.stats
        stats.vector_exchanges += 1
        self._exchanged = True
        mask = None
        if reached is not None:
            mask = np.isin(self._ids[class_index], reached)
        estimates = None
        book = self.block.books.get(class_index)
        if book is not None:
            live = book.live
            stats.lane_steps += (
                len(live) if mask is None else int(mask[live].sum())
            )
            cache = self._estimates
            if cache is not None:
                estimates = cache.get(class_index)
                if estimates is not None:
                    stats.estimate_reuses += 1
                else:
                    estimates = cache[class_index] = book.estimates(
                        self._free_at, now
                    )
        row, _finish, saturated = self.block.exchange(
            class_index, now, mask, estimates, free_at
        )
        if row < 0:
            return None, saturated
        return self._node_ids[row], False

    def exchange_replied(
        self, class_index: int, now: float, delivered, replied
    ) -> Tuple[Optional[int], Tuple[int, ...]]:
        """The exchange under message faults: every bidder the request was
        ``delivered`` to prices as in :meth:`exchange`, but only one that
        ``replied`` can win (the others' queues read as never free).

        Returns ``(chosen_node_id, offerers)``: the winner or ``None``,
        and the replied bidders that offered, in lane order.  A lane
        offered iff it had a unit to sell or, refusing, its agent is
        still below the activation threshold (the latch stays open).
        """
        ids = self._ids[class_index]
        rows = self.block.members[class_index]
        heard = np.isin(ids, replied)
        free_at = self._free_at.copy()
        free_at[rows[~heard]] = _INF
        offered = self.block.supply[class_index] >= 1.0
        chosen, _saturated = self.exchange(
            class_index, now, delivered, free_at
        )
        if self._threshold is not None:
            offered |= ~self.block.locked[rows]
        return chosen, tuple(
            ids[i] for i in np.flatnonzero(offered & heard).tolist()
        )

    def award(self, class_index: int, now: float, node_ids) -> int:
        """Give a query to the earliest completion among ``node_ids`` (some
        of the class's bidders) without asking them: the total-silence
        fallback.  Ties go to the lowest node id; the winner pays one unit
        of supply if it has one."""
        ids = self._ids[class_index]
        lanes = np.flatnonzero(np.isin(ids, node_ids))
        block = self.block
        est = np.maximum(
            self._free_at[block.members[class_index][lanes]], now
        )
        est += block.costs[class_index][lanes]
        lane = int(lanes[est.argmin()])
        R = block.supply[class_index]
        if R[lane] >= 1.0:
            R[lane] -= 1.0
            book = block.books.get(class_index)
            if book is not None and R[lane] < 1.0:
                # Sold out: it refuses from the next exchange on.
                book.live = np.append(book.live, lane)
        return ids[lane]

    @contextmanager
    def batch(self):
        """Reuse each class's completion estimates (see ``_estimates``)
        inside the ``with`` block; the caller leaves it before any commit."""
        self._estimates = {}
        try:
            yield
        finally:
            self._estimates = None

    def close_period(self) -> None:
        """Count the period just closed in ``stats.syncs`` if it saw a
        vector exchange."""
        if self._exchanged:
            self.stats.syncs += 1
            self._exchanged = False
