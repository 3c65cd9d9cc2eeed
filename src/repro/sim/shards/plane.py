"""The plane market: one self-contained QA-NT market over a set of
affinity components (:class:`_MarketPlane`), and the checks on the
columns that enter and leave it.

A plane is a deterministic function of its trace slice.  It runs in a
shard worker (served frame by frame through :meth:`_MarketPlane.handle`,
see :mod:`repro.sim.shards.wire`) or in the coordinator as the residual
plane (:mod:`repro.sim.shards.engine`); nothing here knows which, and
nothing here touches a pipe or a socket.
"""

from __future__ import annotations

import heapq
import math
import random
import resource
import time
from array import array
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ...allocation.market_tick import LaneBlock, check_raise_terms
from ...core.period_engine import unsold_decay
from ...protocol.messages import ProtocolError
from ..metrics import OUTCOME_DTYPES, render_outcome_rows


def _check_lane_costs(costs, rows, cols, ids: Sequence[int]) -> None:
    """Refuse a plane's cost rows unless their finite cells are exactly
    its lanes: :meth:`_MarketPlane._period_solve` solves eq. 4 over the
    lanes alone, which is eq. 4 only if every other cell costs ``inf``.
    Every plane :func:`split_market_classes` yields passes: a node's
    evaluable classes all lie in its affinity component."""
    lanes = np.zeros(costs.shape, dtype=bool)
    lanes[rows, cols] = True
    wrong = np.argwhere(np.isfinite(costs) != lanes)
    if len(wrong):
        i, k = (int(x) for x in wrong[0])
        raise ValueError(
            "plane cost row of node %d has %s cost %r for class %d: a "
            "plane's finite costs must be exactly its lanes"
            % (
                ids[i],
                "a lane with the non-finite" if lanes[i, k] else "the finite",
                float(costs[i, k]),
                k,
            )
        )


#: ``array`` type codes of the outcome columns, eight bytes a cell.
_CELL_CODES = tuple(
    "q" if np.dtype(dtype).kind == "i" else "d" for dtype in OUTCOME_DTYPES
)

#: Rows a plane renders at a time (:meth:`_MarketPlane.collect`): one
#: chunk of its text, and the most Python numbers and row strings alive
#: at once while it renders.
_RENDER_ROWS = 1024


class _MarketPlane:
    """One self-contained QA-NT market over a subset of the federation.

    The full stack of the tick market — request-for-bid exchanges
    (:class:`repro.allocation.market_tick.LaneBlock`), execution
    replay with node-keyed latency streams, and the eq. 4 period solve
    with carry-over credit — restricted to one set of affinity
    components.  Query classes only couple through shared bidders, so
    running each component set in its own plane performs bit-for-bit the
    same float operations, in the same order, as one global plane
    interleaving them: this is the equivalence that makes the outcome
    digest independent of shard count, transport mode and frame size.

    Instances run shard-side (one per shard worker, which serves its
    frames through :meth:`handle`) and coordinator-side (the residual
    plane of split components).  The init mapping is JSON-safe so the
    identical spec crosses pipes and TCP sockets.
    """

    def __init__(self, init: Mapping[str, object]) -> None:
        ids = [int(nid) for nid in init["node_ids"]]
        self._ids = ids
        self._index = {nid: i for i, nid in enumerate(ids)}
        self._num_classes = int(init["num_classes"])
        n = len(ids)
        costs = np.array(init["costs"], dtype=float).reshape(
            n, self._num_classes
        )
        self._allow = np.array(init["allowances"], dtype=float)
        self._seeds = [int(s) for s in init["latency_seeds"]]
        self._base = float(init["base_ms"])
        self._jitter = float(init["jitter_ms"])
        self._factor = float(init["factor"])
        self._floor = float(init["floor"])
        self._cap = float(init["cap"])
        check_raise_terms(self._factor, self._cap)
        self._adjustment = float(init["adjustment"])
        threshold = init.get("threshold")
        self._threshold = None if threshold is None else float(threshold)
        self._period = float(init["period_ms"])
        self._terms = self._factor, self._floor, self._cap, self._threshold
        # The plane's lanes — one per (candidate row, class) — laid out
        # flat in class order.
        self._class_order: List[int] = []
        #: Class -> its lanes' agent row -> execution cost, in lane order
        #: (greedy walks it, replay looks a winner up).
        self._cost_at: Dict[int, Dict[int, float]] = {}
        flat_rows: List[int] = []
        flat_cols: List[int] = []
        for class_index, cand in init["classes"]:
            k = int(class_index)
            rows = [self._index[int(nid)] for nid in cand]
            self._class_order.append(k)
            self._cost_at[k] = dict(zip(rows, costs[rows, k].tolist()))
            flat_rows.extend(rows)
            flat_cols.extend([k] * len(rows))
        #: Classes no node of the plane can evaluate: saturated in every
        #: period, so their queries pool untraded, as greedy's do.
        self._laneless = [k for k in self._class_order if not self._cost_at[k]]
        self._flat_rows = np.array(flat_rows, dtype=np.intp)
        self._flat_cols = np.array(flat_cols, dtype=np.intp)
        #: Each class's first lane, and the classes with lanes in lane
        #: order: the segments :meth:`_period_solve` reduces per class.
        self._lane_starts = np.flatnonzero(
            np.diff(self._flat_cols, prepend=-1)
        )
        self._laned = self._flat_cols[self._lane_starts]
        _check_lane_costs(costs, self._flat_rows, self._flat_cols, ids)
        self._lane_costs = costs[self._flat_rows, self._flat_cols]
        #: Prices and remaining supply of every lane, only ever written in
        #: place: the block's per-class views and kernels alias them.
        self._Vf = np.ones(len(flat_rows), dtype=float)
        self._Rf = np.zeros(len(flat_rows), dtype=float)
        #: Eq. 4 carry-over credit, one float per lane.
        self._credit = np.zeros(len(flat_rows), dtype=float)
        #: The eq. 4 weights scattered over node x class, zero off the
        #: lanes (never written there): see :meth:`_period_solve`.
        self._weights = np.zeros((n, self._num_classes), dtype=float)
        #: Pricing busy mirror: optimistic within a tick, resynced to the
        #: authoritative execution clock at every tick's end.
        self._busy = np.zeros(n, dtype=float)
        #: Authoritative per-node FIFO clocks (negotiation delay included).
        self._exec_busy = np.zeros(n, dtype=float)
        # Both clocks as Python floats, for the per-assignment loops; the
        # arrays are only ever written in place.
        self._busy_view = memoryview(self._busy)
        self._exec_view = memoryview(self._exec_busy)
        # A class the node can never evaluate keeps its initial price of
        # 1.0 forever, pinning the node's max price at >= 1.0.
        self._block = LaneBlock(
            self._Vf, self._Rf, self._flat_rows, self._flat_cols,
            self._lane_costs, self._busy,
            np.isinf(costs).any(axis=1).astype(float), *self._terms,
        )
        self.reset(True)

    @property
    def class_indices(self) -> List[int]:
        """The plane's query classes (init order: ascending index)."""
        return self._class_order

    @property
    def pending_count(self) -> int:
        """Queries refused and waiting for the next period boundary."""
        return self._pending_count

    @property
    def assigned(self) -> int:
        """Assignments executed since the last reset."""
        return self._assigned

    @property
    def exchanges(self) -> int:
        """Request-for-bid exchanges priced since the last reset."""
        return self._exchanges

    def reset(self, qa: bool) -> None:
        """Fresh run state + the bind-time eq. 4 solve (QA-NT only)."""
        self._qa = bool(qa)
        self._busy.fill(0.0)
        self._exec_busy.fill(0.0)
        self._credit.fill(0.0)
        self._rngs = [random.Random(seed) for seed in self._seeds]
        self._Vf.fill(1.0)
        self._Rf.fill(0.0)
        self._period_serial = 0
        self._saturated_in: Dict[int, int] = dict.fromkeys(self._laneless, 0)
        #: Class → the period serial in which it *closed*: no lane has
        #: supply left and every bidder is latched (see `_closed_raises`).
        self._closed_in: Dict[int, int] = {}
        #: Classes that opened this period saturated and that no exchange
        #: has met yet: their bidders are not latched (see `_meet`).
        self._unmet: Set[int] = set()
        self._closed_settled = 0
        #: Refused queries, one qid-ascending pool per class; each entry is
        #: ``(qid, origin, arrival, boundaries seen at entry)``.
        self._pools: Dict[int, List[Tuple]] = {
            k: [] for k in self._class_order
        }
        self._pending_count = 0
        self._boundaries = 0
        self._next_boundary = self._period
        #: The outcome columns, eight bytes a cell, in replay order.
        self._cols = tuple(array(code) for code in _CELL_CODES)
        self._assigned = 0
        self._exchanges = 0
        #: Seconds spent in :meth:`handle` since the reset.
        self.self_time_s = 0.0
        if self._qa and self._ids:
            self._period_solve(0.0)

    # -- driving -------------------------------------------------------------

    def run_slice(self, columns: Sequence[np.ndarray]) -> None:
        """Price the rows of ``columns`` — ``(times_ms, qids,
        class_indices, origin_nodes)``, a run of the plane's trace slice
        cut at tick edges (:func:`_slice_batches`) — in order; refusals
        pool.

        Rows sharing a timestamp form one market tick: where the
        timestamp changes, the tick just priced replays its winners, then
        every period boundary now due is taken.  So a boundary stamped
        exactly at a tick goes first, as the single-process engine
        schedules the period tick ahead of same-timestamp arrivals.
        Greedy takes no boundaries.
        """
        times, qids, classes, origins = (column.tolist() for column in columns)
        qa = self._qa
        exchange = self._exchange if qa else self._greedy
        pools = self._pools
        won: List[Tuple] = []
        tick = None
        due = self._next_boundary if qa else math.inf
        for qid, k, origin, now in zip(qids, classes, origins, times):
            if now != tick:
                if won:
                    self._replay(tick, won)
                    won = []
                tick = now
                while due <= now:
                    self._next_period()
                    due = self._next_boundary
            node = exchange(k, now)
            if node is None:
                pools[k].append((qid, origin, now, self._boundaries))
                self._pending_count += 1
            else:
                won.append((qid, k, origin, now, 0, node))
        if won:
            self._replay(tick, won)
        self._exchanges += len(qids)

    def finish(self, horizon: float, end_of_run: float) -> None:
        """The end of the trace: the boundaries left up to ``horizon``,
        then the drain, boundaries while this plane still holds pending
        queries a boundary can place, up to ``end_of_run``.

        A plane with no such query gains nothing from more boundaries
        (no row reaches it after the trace), so draining on its own count
        gives the outcomes of a drain on the whole federation's.  A
        laneless class's pool never trades, so it keeps no drain going.
        """
        if not self._qa:
            return
        while self._next_boundary <= horizon:
            self._next_period()
        stuck = sum(len(self._pools[k]) for k in self._laneless)
        while self._pending_count > stuck and self._next_boundary <= end_of_run:
            self._next_period()

    def _next_period(self) -> None:
        self.boundary(self._next_boundary)
        self._next_boundary += self._period

    # -- ticking -------------------------------------------------------------

    def _retry_tick(self, now: float) -> None:
        """The boundary's market tick over every pooled query.

        The flat pending list this replaces was always qid-ascending
        (arrivals are routed in qid order, refusals keep processing
        order, retries re-pool before newer arrivals), so merging the
        pool heads by qid replays it exactly.  A class that closes
        leaves the merge: the rest of its pool can only raise its own
        prices, which :meth:`_closed_raises` settles in one go (once
        saturated not even that); the entries stay pooled in qid order
        and only :meth:`_period_solve` re-arms the class.  A class that
        opened the period saturated never enters the merge: its pool
        only meets it (:meth:`_meet`, one latch write for all such
        classes).  Survivors are compacted in place, so a boundary costs
        the exchanges that can still move the market, not the pool size.
        """
        self._exchanges += self._pending_count
        pools = self._pools
        serial = self._period_serial
        if self._unmet:
            self._meet([k for k in self._unmet if pools[k]])
        saturated = self._saturated_in
        cursors = {
            k: [0, 0]
            for k, pool in pools.items()
            if pool and saturated.get(k) != serial
        }
        heads = [(pools[k][0][0], k) for k in cursors]
        heapq.heapify(heads)
        assignments: List[Tuple] = []
        while heads:
            qid, k = heads[0]
            pool = pools[k]
            cursor = cursors[k]
            entry = pool[cursor[0]]
            cursor[0] += 1
            node = self._exchange(k, now)
            if node is None:
                pool[cursor[1]] = entry
                cursor[1] += 1
                if self._saturated_in.get(k) == serial:
                    heapq.heappop(heads)
                    continue
                if self._closed_in.get(k) == serial:
                    self._closed_raises(k, len(pool) - cursor[0])
                    heapq.heappop(heads)
                    continue
            else:
                assignments.append(
                    (qid, k, entry[1], entry[2],
                     self._boundaries - entry[3], node)
                )
            if cursor[0] < len(pool):
                heapq.heapreplace(heads, (pool[cursor[0]][0], k))
            else:
                heapq.heappop(heads)
        for k, (read, kept) in cursors.items():
            del pools[k][kept:read]
        self._pending_count -= len(assignments)
        if assignments:
            self._replay(now, assignments)

    def _exchange(self, class_index: int, now: float) -> Optional[int]:
        """One QA-NT exchange over the plane's local row indices, behind
        the two fast paths of a class that can no longer trade this
        period."""
        if self._saturated_in.get(class_index) == self._period_serial:
            if class_index in self._unmet:
                self._meet((class_index,))
            return None
        if self._closed_in.get(class_index) == self._period_serial:
            self._closed_raises(class_index, 1)
            return None
        row, finish, saturated = self._block.exchange(class_index, now)
        if row < 0:
            # Nobody offered, so every lane is out of supply (a lane
            # with R >= 1 always offers) and, under a threshold, every
            # bidder was just found or set latched: the class is closed.
            if self._threshold is not None:
                self._closed_in[class_index] = self._period_serial
            if saturated:
                self._saturated_in[class_index] = self._period_serial
            return None
        self._busy_view[row] = finish
        return self._ids[row]

    def _closed_raises(self, class_index: int, count: int) -> None:
        """``count`` consecutive exchanges on a closed, unsaturated class.

        Closed = no lane has supply and every bidder is latched.  Both
        hold until :meth:`_period_solve` (supply only falls within a
        period, latches are only cleared there), so the exchanges are
        their price raises alone
        (:meth:`~repro.allocation.market_tick.LaneBlock.closed_raises`),
        up to the cap check that arms the saturated path, where the
        remaining exchanges stop moving even those.
        """
        done, saturated = self._block.closed_raises(class_index, count)
        if saturated:
            self._saturated_in[class_index] = self._period_serial
        self._closed_settled += done

    def _meet(self, classes: Sequence[int]) -> None:
        """Write what the exchange that :meth:`_period_solve` spared each
        of ``classes`` (opened saturated under a threshold) would have
        written when the period first met the class: its bidders latched
        and the class closed.

        The market never reads those latches: each such bidder's running
        maximum is already at the threshold, so any exchange that reaches
        it refuses and latches it either way.  They are still its state,
        so they are written, in one ``locked`` write for all of
        ``classes``, when the retry tick or an arrival meets them."""
        if not classes:
            return
        members = self._block.members
        self._block.locked[
            np.concatenate([members[k] for k in classes])
        ] = True
        serial = self._period_serial
        for k in classes:
            self._closed_in[k] = serial
        self._unmet.difference_update(classes)

    def _greedy(self, class_index: int, now: float) -> Optional[int]:
        """Greedy: every candidate offers; earliest completion wins."""
        busy = self._busy_view
        winner, best = -1, math.inf
        for row, cost in self._cost_at[class_index].items():
            est = busy[row]
            if est < now:
                est = now
            est += cost
            if est < best:
                winner, best = row, est
        if winner < 0:  # a class nobody can evaluate: it pools
            return None
        busy[winner] = best
        return self._ids[winner]

    def _replay(self, now: float, assignments: Sequence[Tuple]) -> None:
        """Execution replay: negotiation delay is two latency legs from
        the *node's* stream, the query starts once that has elapsed and
        the node's FIFO is free (:meth:`repro.sim.node.SimulatedNode
        .enqueue`); the pricing mirror resyncs to the finish."""
        index = self._index
        ebusy = self._exec_view
        cost_at = self._cost_at
        rngs = self._rngs
        base = self._base
        jitter = self._jitter
        cols = self._cols
        busy = self._busy_view
        for qid, class_index, origin, arrival, resub, node in assignments:
            i = index[node]
            if jitter == 0.0:
                delay = base + base
            else:
                rnd = rngs[i].random
                delay = (base + jitter * rnd()) + (base + jitter * rnd())
            assigned = now + delay
            prior = ebusy[i]
            start = prior if prior > assigned else assigned
            finish = start + cost_at[class_index][i]
            ebusy[i] = finish
            cols[0].append(qid)
            cols[1].append(class_index)
            cols[2].append(origin)
            cols[3].append(arrival)
            cols[4].append(assigned)
            cols[5].append(node)
            cols[6].append(start)
            cols[7].append(finish)
            cols[8].append(resub)
            busy[i] = finish
        self._assigned += len(assignments)

    # -- period boundary ------------------------------------------------------

    def boundary(self, now: float) -> int:
        """Steps 12-14 decay, eq. 4, latch reset, retries; returns the
        pending count left after the retry tick."""
        if not self._qa:
            return self._pending_count
        if (self._Rf > 0.0).any():
            self._Vf[:] = unsold_decay(
                self._Vf, self._Rf, self._adjustment, self._floor
            )
        if len(self._ids):
            self._period_solve(now)
        self._boundaries += 1
        if self._pending_count:
            self._retry_tick(now)
        return self._pending_count

    def _period_solve(self, now: float) -> None:
        """Eq. 4 over the plane's nodes (:meth:`repro.core.supply
        .CapacitySupplySet._solve_proportional` row-wise, with the QA-NT
        carry-over rounding) + the new-period latch/max-price/saturation
        re-arm.

        A class whose every lane is sold out at the cap (and, under a
        threshold, whose every bidder's running maximum has reached it)
        cannot trade until the next solve: its exchanges would refuse and
        their raises clamp back to the cap.  It opens the period
        saturated, so no exchange is spent finding that out; what that
        exchange would have latched waits for :meth:`_meet`.

        A node supplies only the classes it can evaluate, so everything
        runs over the lanes: a cell off them has density ``1 / inf = 0``,
        weight 0 and count 0, and its credit never leaves 0.  The one
        node x class pass left is each node's weight total: numpy's
        pairwise row sum over the scattered weights, the float a sum over
        the lanes alone would not reproduce.
        """
        rows = self._flat_rows
        costs = self._lane_costs
        backlog = self._exec_busy - now
        np.clip(backlog, 0.0, None, out=backlog)
        free = self._allow - backlog
        np.clip(free, 0.0, None, out=free)
        D = self._Vf / costs
        top = np.zeros(len(self._ids))
        np.maximum.at(top, rows, D)
        top = top[rows]
        W = np.divide(D, top, out=np.zeros_like(D), where=top > 0.0) ** 2.0
        weights = self._weights
        weights[rows, self._flat_cols] = W
        total = weights.sum(axis=1)
        total[total == 0.0] = 1.0
        counts = (free[rows] * W / total[rows]) / costs
        credit = self._credit
        credit += counts
        whole = np.floor(credit + 1e-9)
        credit -= whole
        self._Rf[:] = whole
        block = self._block
        block.rearm()
        self._period_serial += 1
        serial = self._period_serial
        saturated = self._saturated_in
        for k in self._laneless:
            saturated[k] = serial
        stuck = self._Rf < 1.0
        stuck &= self._Vf == self._cap
        if self._threshold is not None:
            stuck &= block.maxp[rows] >= self._threshold
        opened = []
        if stuck.any():
            full = np.logical_and.reduceat(stuck, self._lane_starts)
            opened = self._laned[full].tolist()
            saturated.update(dict.fromkeys(opened, serial))
        self._unmet = set(opened) if self._threshold is not None else set()

    # -- reporting ------------------------------------------------------------

    def outcome(self) -> Dict[str, object]:
        """Outcome columns and the run counters: the coordinator's own
        plane's part of the merge.

        The columns leave as 1-D arrays of
        :data:`~repro.sim.metrics.OUTCOME_DTYPES` over the plane's own
        cells (``np.frombuffer``), so a reply pickles (and packs, on tcp)
        as nine buffers, never as a list of numpy scalars per row.
        """
        return {
            "columns": [
                np.frombuffer(column, dtype=dtype)
                for column, dtype in zip(self._cols, OUTCOME_DTYPES)
            ],
            "assigned": self._assigned,
            "exchanges": self._exchanges,
            "closed_settled": self._closed_settled,
            "pending": self._pending_count,
        }

    def collect(self) -> Dict[str, object]:
        """:meth:`outcome` and its rows rendered: a shard's final-barrier
        payload.

        The rows leave as the outcome digest hashes them
        (:func:`~repro.sim.metrics.render_outcome_rows`), rendered here
        so that the shards render in parallel: ``text`` is a list of
        ASCII ``bytes`` chunks of up to :data:`_RENDER_ROWS` whole rows,
        never joined here (on tcp each crosses as a raw attachment,
        :func:`_wire_encode`), and ``row_ends`` each row's int64 end
        offset in their concatenation.  The coordinator's own plane
        would render in the coordinator either way, so it leaves its
        rows to the digest (:meth:`ShardedRunResult.outcome_digest`).
        """
        reply = self.outcome()
        cols = self._cols
        chunks = []
        lengths = array("q")
        for lo in range(0, len(cols[0]), _RENDER_ROWS):
            rows = render_outcome_rows(
                [column[lo : lo + _RENDER_ROWS].tolist() for column in cols]
            )
            lengths.extend(map(len, rows))
            chunks.append("".join(rows).encode("ascii"))
        reply["text"] = chunks
        reply["row_ends"] = np.cumsum(np.frombuffer(lengths, dtype=np.int64))
        return reply

    # -- serving a shard ------------------------------------------------------

    def handle(self, frame: Sequence) -> Mapping[str, object]:
        """One frame of a shard worker's run (:func:`_serve`): ``slice``
        and ``end`` frames are one-way (posted, never answered); ``reset``
        and ``collect`` are a run's only sync points.

        A ``slice`` frame is ``("slice", times_ms, qids, class_indices,
        origin_nodes)``; its columns come from outside the process, so a
        frame :func:`_slice_problem` faults is refused with
        :class:`~repro.protocol.messages.ProtocolError`.
        """
        started = time.perf_counter()
        try:
            op = frame[0]
            if op == "slice":
                problem = _slice_problem(frame[1:])
                if problem is not None:
                    raise ProtocolError(problem)
                self.run_slice(frame[1:])
            elif op == "end":
                self.finish(frame[1], frame[2])
            elif op == "reset":
                self.reset(bool(frame[1]))
            elif op == "collect":
                reply = self.collect()
                reply["maxrss_kb"] = resource.getrusage(
                    resource.RUSAGE_SELF
                ).ru_maxrss
                reply["self_time_s"] = self.self_time_s
                return reply
            else:
                raise ValueError("unknown market-shard frame %r" % (op,))
            return {"ok": True}
        finally:
            self.self_time_s += time.perf_counter() - started


#: Dtypes of a ``slice`` frame's columns: ``times_ms``, ``qids``,
#: ``class_indices``, ``origin_nodes``.
_SLICE_DTYPES = (np.float64, np.int64, np.int64, np.int64)


def _columns_problem(columns, dtypes, what: str) -> Optional[str]:
    """Why ``columns`` are not one 1-D array of each of ``dtypes``, all
    of one length, or None; ``what`` names them in the answer."""
    if not isinstance(columns, (list, tuple)) or len(columns) != len(dtypes):
        return "expected %d %s columns" % (len(dtypes), what)
    for n, (column, dtype) in enumerate(zip(columns, dtypes)):
        if not (
            isinstance(column, np.ndarray)
            and column.ndim == 1
            and column.dtype == dtype
        ):
            return "%s column %d is not a 1-D %s array" % (
                what,
                n,
                np.dtype(dtype).name,
            )
        if len(column) != len(columns[0]):
            return "%s column %d has %d rows, column 0 has %d" % (
                what,
                n,
                len(column),
                len(columns[0]),
            )
    return None


def _slice_problem(columns) -> Optional[str]:
    """Why ``columns`` are not a ``slice`` frame's: four 1-D arrays of
    :data:`_SLICE_DTYPES`, of one length, with finite times; or None."""
    problem = _columns_problem(columns, _SLICE_DTYPES, "slice")
    if problem is None and not np.isfinite(columns[0]).all():
        problem = "slice column 0 holds a non-finite time"
    return problem
