"""Sharded multi-process federation: shard-local market planes.

The federation's nodes are partitioned across ``N`` worker processes by
*query-class affinity* (:func:`plan_shards`: classes whose bidder sets
overlap land on the same shard).  QA-NT's pricing state factors along
the catalog's *affinity components*: two query classes interact only
through a shared bidder (busy clock, max-price latch), so a component
whose nodes all landed on one shard runs its **entire**
bid/price/refusal/solve dynamics shard-side, in that shard's
:class:`_MarketPlane`.  Components split across shards form the
**residual plane**, priced and executed by the coordinator with the
identical arithmetic.  A plane is a deterministic function of its
trace slice, so the coordinator otherwise only routes, once per run:

* the trace is split by owning plane; each shard's slice crosses
  :class:`ShardTransport` as one-way ``slice`` frames, each holding the
  bids as four plain columns cut at tick edges (:func:`_slice_batches`),
  then one one-way ``end`` frame;
* every plane takes its own period boundaries and drains on its own
  pending count, with no barrier between planes;
* a final ``collect`` barrier merges the outcome columns; each plane
  renders its own rows of the outcome digest there, so the coordinator
  only orders and hashes them (:meth:`ShardedRunResult.outcome_digest`).

A plane keeps its classes' prices and supply as flat lanes under one
:class:`~repro.allocation.market_tick.LaneBlock` — the state block the
single-process dispatcher holds over the period engine's lanes — and
within a period answers a *closed* class (no supply left, every bidder
latched) with the price raise alone (:meth:`_MarketPlane._closed_raises`).
``mode="tcp"`` runs the same
workers behind length-prefixed frames over localhost sockets (the
:mod:`repro.protocol.transport` framing helpers; a JSON header, then the
arrays and rendered rows as raw attachments, :func:`_wire_encode`), so
shards can span machines.

Determinism is the design's backbone:

* ``shards=1`` delegates verbatim to the single-process engine
  (:func:`repro.sim.federation.build_federation`), so every existing
  golden pins it byte-for-byte;
* ``shards>1`` is invariant to the shard count, the transport mode and
  the frame size: every plane is exactly the global tick market
  restricted to its component set, planes see their own ticks and
  boundaries in trace order, per-node latency streams are keyed by
  *node id* (not shard) through the :func:`derive_shard_seed` sha256
  scheme, and outcomes are globally sorted by ``(finish_ms, qid)``
  before any float reduction, so summary means are bit-identical
  however the fleet is partitioned.
  ``tests/reference_market.py`` is that global market as one plain
  program — the oracle the planes are compared against.

The ``shards>1`` engine is a *model* of the same market, not a replay
of the single-process event loop: arrivals are priced tick by tick,
negotiation delay is charged per assignment from the winning node's
latency stream (two legs) instead of the slowest full-fan-out round
trip, and refused queries wait in per-class pools for the next period
boundary.  Its outputs are pinned by their own goldens
(``tests/golden/sharded_1000node_seed0.json``,
``tests/golden/localmarket_zipf_seed0.json``).
"""

from __future__ import annotations

import heapq
import itertools
import json
import logging
import math
import os
import random
import resource
import select
import socket
import struct
import time
import traceback
from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from ..core.period_engine import unsold_decay
from ..core.qant import (
    DEFAULT_ACTIVATION_THRESHOLD,
    QantParameters,
    backlog_allowance_ms,
)
from ..protocol.messages import ProtocolError
from ..allocation.market_tick import LaneBlock, check_raise_terms
from ..protocol.transport import FrameDecoder, encode_frame, frame_header
from ..workload.trace import trace_columns
from .faults import derive_fault_seed
from .federation import FederationConfig, run_single_mechanism
from .metrics import (
    OUTCOME_DTYPES,
    MetricsCollector,
    render_outcome_rows,
)

__all__ = [
    "ShardFailure",
    "ShardPlan",
    "ShardTransport",
    "ShardedFederation",
    "ShardedRunResult",
    "derive_shard_seed",
    "plan_shards",
    "split_market_classes",
]

_log = logging.getLogger(__name__)


def derive_shard_seed(seed: int, tag: Sequence[object]) -> int:
    """A process-stable child seed for one shard-layer sub-stream.

    Same sha256 derivation as :func:`repro.sim.faults.derive_fault_seed`
    (Python's builtin ``hash`` is salted per process, so sub-streams key
    off a digest of ``(seed, tag)`` instead): the same pair yields the
    same child seed in every worker process, which is what makes the
    sharded engine's latency streams partition- and process-invariant.
    """
    return derive_fault_seed(seed, tag)


# -- the partitioner ----------------------------------------------------------


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic assignment of federation nodes to shards.

    ``shard_nodes[s]`` lists shard *s*'s nodes in ascending id order;
    ``loads[s]`` is the shard's bidding load — the number of
    (node, candidate-class) memberships it hosts.  :func:`plan_shards`
    balances the part of it that whole affinity components contribute,
    which is the part a shard's market plane prices.
    """

    num_shards: int
    shard_nodes: Tuple[Tuple[int, ...], ...]
    loads: Tuple[int, ...]

    @property
    def node_to_shard(self) -> Dict[int, int]:
        """Node id → owning shard index."""
        owner: Dict[int, int] = {}
        for shard, nodes in enumerate(self.shard_nodes):
            for nid in nodes:
                owner[nid] = shard
        return owner

    def imbalance(self) -> float:
        """Max-over-mean of the per-shard bidding loads (1.0 = perfect)."""
        if not self.loads:
            return 1.0
        mean = sum(self.loads) / len(self.loads)
        if mean <= 0:
            return 1.0
        return max(self.loads) / mean


def _affinity_components(
    candidates_by_class: Mapping[int, Sequence[int]],
) -> Tuple[Dict[int, List[int]], Dict[int, int]]:
    """The catalog's affinity components, by union-find over the classes'
    candidate sets (every class unions its bidders, so classes with
    overlapping bidder sets share a component).

    Returns ``(components, root_of)``: root → the component's nodes in
    ascending order, and node → root for every node that bids at all.
    The root is the component's smallest node id, whatever order the
    classes arrive in.
    """
    parent: Dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for candidates in candidates_by_class.values():
        members = sorted(candidates)
        for nid in members:
            parent.setdefault(nid, nid)
        for nid in members[1:]:
            ra, rb = find(members[0]), find(nid)
            if ra != rb:
                # Smaller root wins, keeping group identity canonical.
                if rb < ra:
                    ra, rb = rb, ra
                parent[rb] = ra
    root_of = {nid: find(nid) for nid in sorted(parent)}
    components: Dict[int, List[int]] = {}
    for nid, root in root_of.items():
        components.setdefault(root, []).append(nid)
    return components, root_of


def plan_shards(
    candidates_by_class: Mapping[int, Sequence[int]],
    node_ids: Sequence[int],
    num_shards: int,
) -> ShardPlan:
    """Partition ``node_ids`` into ``num_shards`` by class affinity and load.

    Whole affinity components (:func:`_affinity_components`) are packed
    by weight — a component's (node, class) membership count, the
    trace-free estimate of the pricing work its classes cost a plane:
    heaviest first (ties: smallest root node id), each onto the shard
    whose whole components weigh least so far (ties: lowest index).  A
    component is split only when it alone outweighs a shard's fair share
    ``total / num_shards``: such components' nodes are dealt round-robin
    over the shards, so their classes price on the coordinator's
    residual plane, the one otherwise idle processor.  Nodes bidding in
    no class carry no load and are dealt last, ascending, each to the
    shard holding the fewest nodes.  Purely a function of the catalog —
    no RNG, independent of mapping and ``node_ids`` order — so every
    process computes the identical plan.
    """
    if num_shards <= 0:
        raise ValueError("need at least one shard")
    components, root_of = _affinity_components(candidates_by_class)
    idle = sorted(set(node_ids) - set(root_of))
    if num_shards > len(root_of) + len(idle):
        raise ValueError("more shards than nodes")
    membership: Dict[int, int] = {}
    for candidates in candidates_by_class.values():
        for nid in candidates:
            membership[nid] = membership.get(nid, 0) + 1
    weight = {
        root: sum(membership[nid] for nid in nodes)
        for root, nodes in components.items()
    }
    share = sum(weight.values()) / num_shards
    shard_nodes: List[List[int]] = [[] for _ in range(num_shards)]
    packed = [0] * num_shards
    oversized: List[int] = []
    for root in sorted(components, key=lambda r: (-weight[r], r)):
        if weight[root] > share:
            oversized.extend(components[root])
        else:
            lightest = packed.index(min(packed))
            shard_nodes[lightest].extend(components[root])
            packed[lightest] += weight[root]
    for i, nid in enumerate(oversized):
        shard_nodes[i % num_shards].append(nid)
    for nid in idle:
        min(shard_nodes, key=len).append(nid)
    return ShardPlan(
        num_shards=num_shards,
        shard_nodes=tuple(tuple(sorted(nodes)) for nodes in shard_nodes),
        loads=tuple(
            sum(membership.get(nid, 0) for nid in nodes)
            for nodes in shard_nodes
        ),
    )


def split_market_classes(
    candidates_by_class: Mapping[int, Sequence[int]], plan: ShardPlan
) -> Dict[int, int]:
    """Market-plane ownership of every query class under ``plan``.

    Returns ``owner``: class index → shard index when the class's whole
    *affinity component* landed inside one shard of ``plan`` (the class
    is **shard-local**: that shard may own its full bid/price/refusal
    dynamics), or ``-1`` when the component's nodes span shards (the
    class belongs to the coordinator's **residual plane**).

    Ownership is decided per component, never per class: two classes
    sharing a bidder are coupled through that node's busy clock and
    Section 5.1 max-price latch, so they must price inside one plane
    together — a class whose own candidates fit one shard still goes
    residual if a sibling class drags the component across the boundary.
    """
    components, root_of = _affinity_components(candidates_by_class)
    node_to_shard = plan.node_to_shard
    component_owner: Dict[int, int] = {}
    for root, nodes in components.items():
        shards = {node_to_shard[nid] for nid in nodes}
        component_owner[root] = shards.pop() if len(shards) == 1 else -1
    owner: Dict[int, int] = {}
    for class_index, candidates in candidates_by_class.items():
        # A class nobody bids in belongs to no shard.
        owner[class_index] = (
            component_owner[root_of[min(candidates)]] if candidates else -1
        )
    return owner


# -- the market plane ---------------------------------------------------------

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


#: Rows of a plane's trace slice that force a cut into a further
#: ``slice`` frame (at the next tick edge, never inside a tick): a
#: 24,000-row trace crosses in a handful of frames.
_SLICE_ROW_BOUND = 2048


def _slice_batches(columns: Tuple, rows) -> Iterator[Tuple]:
    """One plane's trace slice ``rows`` (time-ordered row numbers of the
    :meth:`ShardedFederation._trace_columns` arrays, which are the qids)
    as runs of up to about ``_SLICE_ROW_BOUND`` rows, each the columns
    ``(times_ms, qids, class_indices, origin_nodes)`` as float64 / int64
    arrays: a ``slice`` frame's body, and the residual plane's input.

    The first run is an eighth of the bound and each next one doubles,
    so a worker starts ticking while the coordinator still sends the
    rest of its slice.  A run is cut only where the timestamp changes: a
    tick split over two :meth:`_MarketPlane.run_slice` calls would replay
    its first part's winners, and so resync the busy mirror, mid-tick.
    """
    times, classes, origins = columns
    row_times = times[rows]
    size = max(1, _SLICE_ROW_BOUND // 8)
    lo = 0
    while lo < len(rows):
        hi = len(rows)
        if hi - lo > size:
            last = row_times[lo + size - 1]
            hi = int(np.searchsorted(row_times, last, side="right"))
        part = rows[lo:hi]
        yield row_times[lo:hi], part, classes[part], origins[part]
        lo = hi
        size = min(2 * size, _SLICE_ROW_BOUND)


#: Worker-core registry: ``shard_inits[i]["kind"]`` picks the class.
_CORE_KINDS = {"market": _MarketPlane}


def _make_core(init: Mapping[str, object]):
    return _CORE_KINDS[init["kind"]](init)


def _serve(peer, core) -> None:
    """Worker main loop over a pipe connection or a wire channel: one
    frame in, one reply out — except ``("post", inner)`` wrappers, which
    are handled without a reply (the trace slice: the coordinator keeps
    posting while this worker ticks).  A coordinator that is gone ends
    the loop quietly.

    A frame that raises is logged, and from then on every answered frame
    but ``close`` gets the failure (:func:`_failure_reply`) instead of
    its reply, which the coordinator raises as a :class:`ShardFailure`:
    a posted frame has no reply of its own, so its failure waits for the
    next barrier, and the frames posted after it are skipped.  A tcp
    frame this worker cannot read, or one that is not an op and its
    arguments (:func:`_frame_problem`), fails the same way, and its
    failure is sent at once: it may have been a barrier's frame, whose
    reply the coordinator waits for, and if it was posted, the next
    barrier reads the failure all the same.  A stream whose length
    prefix is hostile cannot be read past: the worker answers it with
    the failure at once and exits.  A reply the wire cannot carry is
    replaced by the failure it raised.
    """
    _log.debug("shard worker %d started", os.getpid())
    handle = core.handle
    failure = None
    while True:
        try:
            frame = peer.recv()
            problem = _frame_problem(frame)
            if problem is not None:
                raise ProtocolError(problem)
        except (EOFError, OSError):  # pragma: no cover - parent died
            break
        except ProtocolError:  # a whole frame, unreadable
            failure = _failure_reply(None)
            handle = _skip_frame
            try:
                peer.send(failure)
            except OSError:
                break
            continue
        except ValueError:  # a hostile length prefix: the stream is lost
            try:
                peer.send(_failure_reply(None))
            except OSError:
                pass
            break
        if frame[0] == "post":
            try:
                handle(frame[1])
            except Exception:
                failure = _failure_reply(frame[1][0])
                handle = _skip_frame
            continue
        closing = frame[0] == "close"
        if closing:
            reply = {"ok": True}
        elif failure is not None:
            reply = failure
        else:
            try:
                reply = core.handle(frame)
            except Exception:
                reply = failure = _failure_reply(frame[0])
                handle = _skip_frame
        try:
            try:
                peer.send(reply)
            except (ValueError, TypeError):  # a reply the wire cannot
                # carry (a non-finite float64 cell, over MAX_FRAME_BYTES):
                # none of it was written, so the failure goes instead
                reply = failure = _failure_reply(frame[0])
                handle = _skip_frame
                peer.send(reply)
        except OSError:  # the coordinator died or stopped reading
            break
        if closing:
            peer.close()
            break
    _log.debug("shard worker %d exits", os.getpid())


def _frame_problem(frame) -> Optional[str]:
    """Why ``frame`` is not a list or tuple led by its op (a string), or
    ``("post", frame)`` around one; or None."""
    if isinstance(frame, (list, tuple)) and frame and frame[0] == "post":
        if len(frame) != 2:
            return "a post frame is (\"post\", frame), not %d items" % len(frame)
        frame = frame[1]
    if isinstance(frame, (list, tuple)) and frame and isinstance(frame[0], str):
        return None
    return "a frame is a list led by its op, not %.80r" % (frame,)


def _failure_reply(op: Optional[str]) -> Dict[str, str]:
    """Log the exception being handled; the reply that carries it.  A
    frame the worker could not read has no ``op``: the coordinator
    names the op of the barrier that reads the failure."""
    if op is None:
        _log.exception("shard worker %d could not read a frame", os.getpid())
        return {"error": traceback.format_exc()}
    _log.exception("shard worker %d failed on a %r frame", os.getpid(), op)
    return {"error": traceback.format_exc(), "op": op}


def _skip_frame(frame: Tuple) -> None:
    """A failed worker's handler for posted frames: its plane is broken."""


def _claim_cpu(index: int) -> None:
    """Pin this worker process to one CPU of those it may run on.

    Workers are CPU-bound and are woken by the coordinator's writes, and
    a coordinator that mostly sleeps (it only routes) looks like the
    idle end of a ping-pong to the kernel's wake-affine placement: it
    stacks the workers on the coordinator's CPU and load
    balancing leaves them there for runs on end while the next CPU
    idles.  On 2 cores the same replay then took 0.20 s or 0.30 s, and
    whole sessions sat in the slow mode.  Worker ``index`` of a pool
    takes CPU ``(coordinator pid + index) mod n`` of the allowed set:
    one pool's workers never share while CPUs last, and concurrent
    pools start on different CPUs.  The coordinator stays unpinned.
    """
    if not hasattr(os, "sched_setaffinity"):  # pragma: no cover - non-Linux
        return
    cpus = sorted(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {cpus[(os.getppid() + index) % len(cpus)]})
    except OSError:  # pragma: no cover - a sandbox may forbid it
        pass


def _shard_worker(conn, init: Mapping[str, object], index: int) -> None:
    """Forked pipe worker."""
    _claim_cpu(index)
    _arm_send_deadline(conn.fileno())
    _serve(conn, _make_core(init))


#: Attachment tags of a tcp frame (:func:`_wire_encode`): numpy's
#: ``dtype.str`` of the two column dtypes, each cell eight little-endian
#: bytes, and ``"bytes"``, raw bytes as they are (a plane's rendered
#: rows, ASCII).
_ATTACHMENT_DTYPES = {"<i8": np.dtype("<i8"), "<f8": np.dtype("<f8")}
_BYTES_TAG = "bytes"

#: A tcp frame's payload starts with its JSON header's byte length and
#: its attachment count, 4-byte unsigned big-endian each.
_WIRE_PREFIX = struct.Struct(">II")

#: Zero bytes that pad an attachment to the next eight-byte boundary, so
#: every column starts aligned in the received frame.
_PAD = bytes(8)


def _wire_encode(obj) -> Tuple[bytes, List[memoryview]]:
    """``obj`` as a tcp frame payload: its head (prefix and JSON header)
    and its attachments, the buffers that follow the head in order.

    ``json.dumps`` writes the header and lifts what JSON cannot spell
    (its ``default``): a 1-D int64 or finite float64 array, or a
    ``bytes`` object, becomes an attachment, and the header holds
    ``{"@": tag, "at": offset, "n": length}`` in its place, ``offset``
    counted from the end of the head; a numpy scalar crosses as its
    Python value.  Any other array, or a non-finite cell, is refused
    with :class:`~repro.protocol.messages.ProtocolError`, and an object
    JSON cannot spell with ``TypeError``, before anything is written.
    The head is padded with spaces, and each attachment with zero
    bytes, to a multiple of eight bytes.
    """
    buffers: List[memoryview] = []
    size = count = 0

    def lift(value):
        nonlocal size, count
        if isinstance(value, np.ndarray):
            tag = value.dtype.str
            if tag not in _ATTACHMENT_DTYPES or value.ndim != 1:
                raise ProtocolError(
                    "a %d-D %s array cannot cross the shard wire"
                    % (value.ndim, tag)
                )
            if tag == "<f8" and not np.isfinite(value).all():
                raise ProtocolError("a <f8 column holds a non-finite cell")
            data = memoryview(np.ascontiguousarray(value)).cast("B")
        elif isinstance(value, bytes):
            tag, data = _BYTES_TAG, memoryview(value)
        elif isinstance(value, np.generic):
            return value.item()
        else:
            raise TypeError(
                "cannot serialise %r for the shard wire" % type(value).__name__
            )
        reference = {"@": tag, "at": size, "n": len(data)}
        buffers.append(data)
        pad = -len(data) % 8
        if pad:
            buffers.append(memoryview(_PAD)[:pad])
        size += len(data) + pad
        count += 1
        return reference

    header = json.dumps(obj, separators=(",", ":"), default=lift).encode("ascii")
    header += b" " * (-(_WIRE_PREFIX.size + len(header)) % 8)
    return _WIRE_PREFIX.pack(len(header), count) + header, buffers


def _wire_decode(payload: bytes):
    """The object :func:`_wire_encode` wrote as ``payload``.

    Columns come back as read-only arrays over ``payload``
    (``np.frombuffer``), ``bytes`` attachments as copies.  Socket bytes
    are outside input, so the payload is refused whole, with
    :class:`~repro.protocol.messages.ProtocolError`, for a header that
    is not ASCII JSON or runs past the payload, and for an attachment
    reference that is not exactly ``{"@": tag, "at": offset, "n":
    length}``, whose tag is unknown, whose bytes lie outside the payload
    or overlap another's, whose length is not a whole number of cells, or
    whose float64 cells are not all finite; and when the header holds
    another number of references than the prefix counts, which is how a
    payload dict that happens to hold the key ``"@"`` is refused.
    """
    if len(payload) < _WIRE_PREFIX.size:
        raise ProtocolError("a frame of %d bytes has no header" % len(payload))
    header_bytes, count = _WIRE_PREFIX.unpack_from(payload)
    base = _WIRE_PREFIX.size + header_bytes
    room = len(payload) - base
    if room < 0:
        raise ProtocolError(
            "the %d-byte header runs past the %d-byte frame"
            % (header_bytes, len(payload))
        )
    spans: List[Tuple[int, int]] = []

    def attachment(obj: Dict[str, object]):
        if "@" not in obj:
            return obj
        tag, at, n = obj.get("@"), obj.get("at"), obj.get("n")
        if obj.keys() != {"@", "at", "n"} or not isinstance(tag, str):
            raise ProtocolError(
                "an attachment reference is {\"@\": tag, \"at\": offset, "
                "\"n\": length}, not %r" % (obj,)
            )
        if type(at) is not int or type(n) is not int:
            raise ProtocolError(
                "an attachment's offset and length must be ints, not %.30r "
                "and %.30r" % (at, n)
            )
        if not 0 <= at <= room - n or n < 0:
            raise ProtocolError(
                "an attachment of %d bytes at %d lies outside the %d bytes "
                "after the header" % (n, at, room)
            )
        spans.append((at, n))
        if tag == _BYTES_TAG:
            return payload[base + at : base + at + n]
        dtype = _ATTACHMENT_DTYPES.get(tag)
        if dtype is None:
            raise ProtocolError("unknown attachment tag %r" % (tag,))
        if n % dtype.itemsize:
            raise ProtocolError(
                "a %s attachment of %d bytes is not a whole number of "
                "%d-byte cells" % (tag, n, dtype.itemsize)
            )
        cells = np.frombuffer(payload, dtype, n // dtype.itemsize, base + at)
        if tag == "<f8" and not np.isfinite(cells).all():
            raise ProtocolError("a <f8 attachment holds a non-finite cell")
        return cells

    try:
        obj = json.loads(
            payload[_WIRE_PREFIX.size : base].decode("ascii"),
            object_hook=attachment,
        )
    except ProtocolError:
        raise
    except (ValueError, RecursionError) as error:
        raise ProtocolError("the frame's header is not JSON: %s" % error) from error
    if len(spans) != count:
        raise ProtocolError(
            "the header references %d attachments, the prefix counts %d"
            % (len(spans), count)
        )
    spans.sort()
    for (at, n), (next_at, _) in zip(spans, spans[1:]):
        if next_at < at + n:
            raise ProtocolError(
                "attachments at %d and %d overlap" % (at, next_at)
            )
    return obj


#: Payload bytes above which :meth:`_WireChannel.send` writes a frame
#: piece by piece.  Below it a frame goes joined, through
#: :func:`~repro.protocol.transport.encode_frame`, which is where the
#: repo benchmark's ledger counts the coordinator's frame bytes
#: (``protocol.frame_bytes``); every frame the coordinator sends is
#: below it (a 2,048-row ``slice`` frame is about 66 KB).  Above it is a
#: shard's ``collect`` reply, megabytes of columns and rows: joined, its
#: payload and frame at once would be two more copies of it.
_JOINED_FRAME_BYTES = 1 << 20


class _WireChannel:
    """One frame byte stream over a connected socket.

    Frames are :func:`_wire_encode` payloads wrapped in the protocol
    layer's length-prefix framing (:func:`repro.protocol.transport
    .encode_frame` / :class:`~repro.protocol.transport.FrameDecoder`), so
    both ends reassemble partial reads deterministically.  Arrays and
    rendered rows cross as raw attachments after a JSON header (a float
    as its eight bytes), and JSON round-trips the remaining floats
    exactly (shortest-repr), which is what keeps tcp mode bit-identical
    to pipes.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._decoder = FrameDecoder()
        self._frames: deque = deque()

    def fileno(self) -> int:
        return self._sock.fileno()

    def send(self, obj) -> None:
        """Write ``obj`` as one frame.  A payload of over
        :data:`_JOINED_FRAME_BYTES` (a ``collect`` reply) goes as its
        length prefix and head, then attachment by attachment, never
        joined; a smaller one goes joined, in one write.  The bytes on
        the socket are the same."""
        head, buffers = _wire_encode(obj)
        size = len(head) + sum(map(len, buffers))
        if size <= _JOINED_FRAME_BYTES:
            self._sock.sendall(encode_frame(b"".join([head, *buffers])))
            return
        self._sock.sendall(frame_header(size) + head)
        for buffer in buffers:
            self._sock.sendall(buffer)

    def _read(self) -> None:
        data = self._sock.recv(1 << 16)
        if not data:
            raise EOFError("shard wire closed")
        self._frames.extend(self._decoder.feed(data))

    def recv(self):
        while not self._frames:
            self._read()
        return _wire_decode(self._frames.popleft())

    def poll(self, timeout: float) -> bool:
        """Whether a whole frame is in within ``timeout`` seconds, like
        ``multiprocessing.connection.Connection.poll`` (a closed wire
        raises ``EOFError`` here rather than at the next :meth:`recv`)."""
        deadline = time.monotonic() + timeout
        try:
            while not self._frames:
                left = deadline - time.monotonic()
                if left <= 0.0:
                    return False
                self._sock.settimeout(left)
                self._read()
        except socket.timeout:
            return False
        finally:
            self._sock.settimeout(None)
        return True

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def _tcp_shard_worker(host: str, port: int, index: int) -> None:
    """TCP worker main loop: connect, identify, receive the init frame,
    then serve frames exactly like the pipe worker.

    The worker learns *everything* — including its shard spec — over the
    socket, so the same loop could run on another machine given only the
    coordinator's address.
    """
    _claim_cpu(index)
    sock = socket.create_connection((host, port))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    _arm_send_deadline(sock.fileno())
    channel = _WireChannel(sock)
    channel.send(["hello", index])
    _serve(channel, _make_core(channel.recv()))


# -- the transport ------------------------------------------------------------

#: Seconds between worker-liveness checks while tcp workers connect.
_TCP_ACCEPT_POLL_S = 0.05

#: Seconds :meth:`ShardTransport.close` gives the whole pool to
#: acknowledge ``close`` and exit before it kills what is left.
_CLOSE_GRACE_S = 5.0

#: Seconds the wire may make no progress, either way, before a shard
#: counts as failed: a barrier waits this long for one shard's reply,
#: and a frame write (``SO_SNDTIMEO``, :func:`_arm_send_deadline`) this
#: long for the peer to take more bytes.  The send timeout restarts on
#: every partial write, so it bounds a stall, not a whole frame.  The
#: longest legitimate waits measured on a 2-core Xeon: 3.4 ms of barrier
#: time per run in ``run scaling-shards --scale paper`` (8 shards) and
#: 2.7 ms in ``million_query_run`` (4 shards), whose classes price on the
#: coordinator.  Were that run's whole 19 s wall one plane's
#: ``collect``, the deadline would still be 15x it.
_WIRE_DEADLINE_S = 300.0


def _arm_send_deadline(fd: int) -> None:
    """Give one end of a shard's pipe or socket a send timeout of
    :data:`_WIRE_DEADLINE_S`: a write that makes no progress for that
    long raises ``BlockingIOError`` instead of blocking forever.  Both
    ends are armed: the coordinator's at spawn, a worker's as it starts,
    so a worker whose coordinator stopped reading gives up its reply and
    exits (:func:`_serve`) rather than wait for :meth:`ShardTransport
    .close` to kill it.

    A duplex ``multiprocessing.Pipe`` is a ``socketpair`` on Unix, so one
    option on a duplicate of ``fd`` covers fork and tcp peers alike.
    """
    seconds, fraction = divmod(_WIRE_DEADLINE_S, 1.0)
    timeval = struct.pack("ll", int(seconds), int(fraction * 1e6))
    with socket.socket(fileno=os.dup(fd)) as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, timeval)


class ShardFailure(RuntimeError):
    """A shard worker died, its pipe/socket closed, it sent a malformed
    frame, or a frame raised inside it, mid-run.

    ``shard`` is the worker's index and ``op`` the frame op the
    coordinator was sending or awaiting when the wire broke, or the op of
    the frame that raised; the cause of a raise is a ``RuntimeError``
    holding the worker's formatted traceback.  (Inline mode runs the
    cores in-process, so there a frame's exception propagates as is.)  The
    transport is unusable afterwards; :meth:`ShardTransport.close`
    still reaps every child.
    """

    def __init__(self, shard: int, op: str, cause: BaseException) -> None:
        # All three in ``args`` so pickle/copy can rebuild the exception.
        super().__init__(shard, op, cause)
        self.shard = shard
        self.op = op

    def __str__(self) -> str:
        return "shard %d failed during %r frame: %r" % self.args


class ShardTransport:
    """Pipe- or socket-backed frame channel to a pool of shard workers.

    Peers are shard indices.  A run is one answered ``reset``
    (:meth:`exchange`), the plane's trace slice as one-way ``slice``
    frames and one one-way ``end`` frame (:meth:`post`), then one
    answered ``collect``; ``close`` ends the pool.  :meth:`exchange` is
    a pipelined barrier — all frames are written before any reply is
    read, and replies are read in shard order, so the merge order (and
    therefore every downstream float) never depends on worker
    scheduling.

    ``mode="fork"`` forks one daemon worker per shard over
    :func:`multiprocessing.Pipe`, which pickles every frame;
    ``mode="inline"`` runs the identical cores in-process and hands them
    the frames as they are — the equivalence tests pin fork == inline
    bit-for-bit.  ``mode="tcp"`` forks the same workers but
    moves every frame as a length-prefixed JSON header and raw
    attachments (:func:`_wire_encode`) over localhost sockets
    (the :mod:`repro.protocol.transport` framing helpers), the
    machine-spanning wire: workers receive even their shard spec over
    the socket, so only the fork itself is process-local.  Worker
    processes pin themselves to one CPU each (:func:`_claim_cpu`).
    """

    def __init__(
        self, shard_inits: Sequence[Mapping[str, object]], mode: str = "fork"
    ) -> None:
        if mode not in ("fork", "inline", "tcp"):
            raise ValueError(
                "transport mode must be 'fork', 'inline' or 'tcp'"
            )
        # Checked before any fork or socket: a bad kind would otherwise
        # be a KeyError inside a daemon worker, seen only as an EOF.
        for index, init in enumerate(shard_inits):
            if init.get("kind") not in _CORE_KINDS:
                raise ValueError(
                    "shard init %d has kind %r: expected one of %r"
                    % (index, init.get("kind"), sorted(_CORE_KINDS))
                )
        self._mode = mode
        self._num_shards = len(shard_inits)
        #: Wall-clock milliseconds spent blocked at barriers
        #: (coordinator waiting on shard replies).
        self.barrier_wait_ms = 0.0
        #: One-way frames dispatched without a reply (see :meth:`post`).
        self.posted_frames = 0
        self._child_peak_kb = 0
        self._closed = False
        if mode != "inline":
            import multiprocessing

            ctx = multiprocessing.get_context("fork")
        if mode == "fork":
            self._peers = []
            self._procs = []
            for index, init in enumerate(shard_inits):
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_shard_worker,
                    args=(child_conn, init, index),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                _arm_send_deadline(parent_conn.fileno())
                self._peers.append(parent_conn)
                self._procs.append(proc)
        elif mode == "tcp":
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind(("127.0.0.1", 0))
            listener.listen(max(1, len(shard_inits)))
            host, port = listener.getsockname()
            self._procs = []
            for index in range(len(shard_inits)):
                proc = ctx.Process(
                    target=_tcp_shard_worker,
                    args=(host, port, index),
                    daemon=True,
                )
                proc.start()
                self._procs.append(proc)
            self._peers: List[Optional[_WireChannel]] = [None] * len(
                shard_inits
            )
            try:
                self._seat_tcp_workers(listener)
            except ShardFailure:
                for channel in self._peers:
                    if channel is not None:
                        channel.close()
                for proc in self._procs:
                    proc.kill()
                    proc.join()
                raise
            finally:
                listener.close()
            for channel, init in zip(self._peers, shard_inits):
                _arm_send_deadline(channel.fileno())
                channel.send(init)
        else:
            self._cores = [_make_core(init) for init in shard_inits]

    def _seat_tcp_workers(self, listener: socket.socket) -> None:
        """Accept every tcp worker and seat its channel by its ``hello``.

        The listener is polled: a worker that has not connected and is
        no longer alive fails the start, and so does a first frame that
        is not ``["hello", i]`` for a still-empty seat ``i`` (malformed,
        out of range or repeated) — both as ``ShardFailure(shard,
        "hello", cause)``, shard ``-1`` for a frame that names no seat.
        """
        peers = self._peers
        listener.settimeout(_TCP_ACCEPT_POLL_S)
        while None in peers:
            try:
                sock, _addr = listener.accept()
            except socket.timeout:
                for shard, proc in enumerate(self._procs):
                    if peers[shard] is None and not proc.is_alive():
                        cause = EOFError("worker exited before connecting")
                        raise ShardFailure(shard, "hello", cause)
                continue
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            channel = _WireChannel(sock)
            try:
                hello = channel.recv()
                seats = [
                    seat
                    for seat, peer in enumerate(peers)
                    if peer is None and hello == ["hello", seat]
                ]
                if not seats:
                    raise ValueError(
                        "%r names no empty seat of %d" % (hello, len(peers))
                    )
            except (EOFError, OSError, ValueError) as error:
                channel.close()
                raise ShardFailure(-1, "hello", error) from error
            peers[seats[0]] = channel

    @property
    def num_shards(self) -> int:
        """Number of shard peers behind this transport."""
        return self._num_shards

    @property
    def mode(self) -> str:
        """``"fork"``, ``"inline"`` or ``"tcp"``."""
        return self._mode

    def exchange(
        self, frames: Sequence[Tuple]
    ) -> List[Mapping[str, object]]:
        """One pipelined barrier: frame *i* to shard *i*, replies in order.

        In fork mode every frame is written before the first reply is
        read, so shards overlap their work; the time spent blocked on
        replies accumulates into :attr:`barrier_wait_ms`.  A shard whose
        reply is not in :data:`_WIRE_DEADLINE_S` after the coordinator
        starts to wait for it is a :class:`ShardFailure` whose cause is a
        ``TimeoutError``.
        """
        if self._mode == "inline":
            start = time.perf_counter()
            replies = [
                core.handle(frame) for core, frame in zip(self._cores, frames)
            ]
            self.barrier_wait_ms += (time.perf_counter() - start) * 1e3
            return replies
        for shard, frame in enumerate(frames):
            self._send(shard, frame)
        start = time.perf_counter()
        replies = [
            self._recv(shard, frame[0]) for shard, frame in enumerate(frames)
        ]
        self.barrier_wait_ms += (time.perf_counter() - start) * 1e3
        return replies

    def _send(self, shard: int, frame: Sequence) -> None:
        try:
            self._peers[shard].send(frame)
        except (OSError, ValueError) as error:
            # ValueError: a frame the tcp wire cannot carry, such as a
            # non-finite float in a float64 column; nothing was written.
            op = frame[1][0] if frame[0] == "post" else frame[0]
            if isinstance(error, BlockingIOError):  # the send deadline
                _log.warning(
                    "shard %d took no more of a %r frame within %g s",
                    shard,
                    op,
                    _WIRE_DEADLINE_S,
                )
                cause = TimeoutError(
                    "frame not taken within %g s" % _WIRE_DEADLINE_S
                )
                raise ShardFailure(shard, op, cause) from error
            raise ShardFailure(shard, op, error) from error

    def _recv(self, shard: int, op: str) -> Mapping[str, object]:
        peer = self._peers[shard]
        try:
            if peer.poll(_WIRE_DEADLINE_S):
                reply = peer.recv()
                if isinstance(reply, dict) and "error" in reply:
                    # The worker raised (see _serve): name its frame.
                    raise ShardFailure(
                        shard,
                        str(reply.get("op", op)),
                        RuntimeError(str(reply["error"])),
                    )
                return reply
        except (EOFError, OSError, ValueError) as error:
            # ValueError: a tcp frame _wire_decode refuses, or whose
            # length prefix exceeds MAX_FRAME_BYTES -- socket bytes are
            # outside input.
            raise ShardFailure(shard, op, error) from error
        _log.warning(
            "shard %d sent no %r reply within %g s",
            shard,
            op,
            _WIRE_DEADLINE_S,
        )
        cause = TimeoutError("no reply within %g s" % _WIRE_DEADLINE_S)
        raise ShardFailure(shard, op, cause)

    def post(self, frames: Sequence[Optional[Tuple]]) -> None:
        """One-way dispatch: frame *i* to shard *i*, no replies read.

        The coordinator keeps posting while the workers tick; OS
        pipe/socket buffers provide the backpressure; a shard that takes
        no more bytes of a frame for :data:`_WIRE_DEADLINE_S` fails as a
        :class:`ShardFailure` whose cause is a ``TimeoutError``.  Workers
        process frames strictly in arrival order, so a later
        :meth:`exchange` barrier observes every posted frame's effects.  Inline mode
        handles the frames synchronously (same cores), preserving
        bit-identity across modes.
        """
        posted = 0
        for shard, frame in enumerate(frames):
            if frame is None:
                continue
            if self._mode == "inline":
                self._cores[shard].handle(frame)
            else:
                self._send(shard, ("post", frame))
            posted += 1
        self.posted_frames += posted

    def note_child_peak_kb(self, peak_kb: int) -> None:
        """Record the workers' peak RSS (from a collect barrier)."""
        if peak_kb > self._child_peak_kb:
            self._child_peak_kb = peak_kb

    def child_peak_kb(self) -> int:
        """Peak worker-process RSS in KiB (0 in inline mode).

        Both child-bearing modes report: forked-pipe workers *and* tcp
        workers fold their ``ru_maxrss`` through the collect barrier.
        """
        return self._child_peak_kb if self._mode != "inline" else 0

    def close(self) -> None:
        """Shut the worker pool down (idempotent).

        Every child is reaped even after a :class:`ShardFailure`, in
        bounded time: dead peers are skipped, live ones acknowledge and
        exit, and whatever has not done so :data:`_CLOSE_GRACE_S` after
        the call began is killed.  A worker stuck inside a frame reads
        nothing more, so neither the ``close`` write (its pipe or socket
        may be full) nor the wait for its acknowledgement may block past
        that deadline.
        """
        if self._closed:
            return
        self._closed = True
        if self._mode == "inline":
            return
        deadline = time.monotonic() + _CLOSE_GRACE_S

        def left() -> float:
            return max(0.0, deadline - time.monotonic())

        for peer in self._peers:
            try:
                if select.select([], [peer], [], left())[1]:
                    peer.send(("close",))
                    if peer.poll(left()):
                        peer.recv()
            except (EOFError, OSError, ValueError):  # as in _recv
                pass
            peer.close()
        for shard, proc in enumerate(self._procs):
            proc.join(timeout=left())
            if proc.is_alive():
                _log.warning(
                    "shard %d did not exit within %g s of 'close'; killing it",
                    shard,
                    _CLOSE_GRACE_S,
                )
                proc.kill()
                proc.join()


# -- the merged result --------------------------------------------------------


@dataclass(frozen=True)
class ShardedRunResult:
    """Outcome of one sharded run: the run's metrics collector plus the
    protocol messages it moved and its shard count.

    Planes' outcomes reach the collector's table globally sorted by
    ``(finish_ms, qid)`` *before* any reduction — the same array
    therefore feeds every float sum regardless of how the fleet was
    partitioned, which is what makes the summary statistics
    shard-count-invariant bit-for-bit.  At ``shards=1`` the collector is
    the single-process engine's own.
    """

    #: The run's collector: outcome table and counters.
    metrics: MetricsCollector
    #: Protocol messages the run moved (network messages at ``shards=1``;
    #: otherwise one bid per trace row routed to a shard).
    messages: int
    #: Shard count of the run (1 = single-process delegation).
    shards: int
    #: The shards' rendered outcome rows: their text chunks, and each
    #: row's chunk (-1 for the residual plane's rows, which have none)
    #: and start and end offset in it, in table order (``None`` at
    #: ``shards=1``, where the collector renders its own).
    rendered: Optional[
        Tuple[List[bytes], np.ndarray, np.ndarray, np.ndarray]
    ] = field(default=None, repr=False, compare=False)

    @property
    def completed(self) -> int:
        """Queries that finished."""
        return self.metrics.completed

    @property
    def dropped(self) -> int:
        """Queries still unserved when the run ended."""
        return self.metrics.dropped

    @property
    def in_flight(self) -> int:
        """Assigned queries still running when the run ended: the event
        engine's count at ``shards=1``; planes finish every assignment."""
        return self.metrics.in_flight

    def mean_response_ms(self) -> float:
        """Average response time over the completion-ordered outcomes."""
        return self.metrics.mean_response_ms()

    def percentile_response_ms(self, fraction: float) -> float:
        """Response-time percentile with the collector's index rule."""
        return self.metrics.percentile_response_ms(fraction)

    def executed_per_period(
        self, period_ms: float, horizon_ms: float
    ) -> List[int]:
        """Queries finished in each period, by the collector's rule."""
        return self.metrics.executed_per_period(period_ms, horizon_ms)

    def batch_summary(self) -> Dict[str, float]:
        """The tick/shard counters (shard keys only on sharded runs)."""
        return self.metrics.batch_summary()

    def outcome_digest(self) -> str:
        """SHA-256 over every field of every outcome, completion order
        (:meth:`MetricsCollector.outcome_digest`).

        On the planes it hashes the rows the shards rendered at
        ``collect``, in the merged table's order, and renders the
        residual plane's rows itself.  The merge checked the text's
        shape and a sample of its rows against the merged columns
        (:func:`_misrendered_row`); tier-1 holds this digest equal to
        the collector's own.
        """
        if self.rendered is None:
            return self.metrics.outcome_digest()
        return self.metrics.rendered_outcome_digest(*self.rendered)

    def payload(self) -> Dict[str, object]:
        """Full golden-style payload (includes shard-dependent counters)."""
        payload = self.invariant_payload()
        payload["messages"] = self.messages
        payload["batch_summary"] = self.batch_summary()
        return payload

    def invariant_payload(self) -> Dict[str, object]:
        """The shard-count-invariant slice of :meth:`payload`.

        Message counts and shard counters legitimately change with the
        partition (bids broadcast to more shards cost more messages);
        the *market outcome* must not.  This is what the sharded golden
        pins across shard counts and ``--jobs`` settings.
        """
        return {
            "completed": self.completed,
            "dropped": self.dropped,
            "mean_response_ms": self.mean_response_ms(),
            "p99_response_ms": self.percentile_response_ms(0.99),
            "outcome_digest": self.outcome_digest(),
        }


# -- the sharded federation ---------------------------------------------------


def _locate_rows(
    text: Sequence[bytes], ends: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's chunk of ``text`` and its start and end offsets in that
    chunk, for rows ending at ``ends`` in the chunks' concatenation.  A
    row that straddles two chunks starts at a negative offset."""
    bounds = np.cumsum([0] + [len(chunk) for chunk in text])
    which = np.searchsorted(bounds, ends) - 1
    first = bounds[which]
    return which, ends - np.diff(ends, prepend=0) - first, ends - first


#: Every this many rows of a shard's part (and its first and last row),
#: the merge renders the merged row itself and compares it with the text
#: the shard rendered (:func:`_misrendered_row`).
_CHECK_EVERY = 256


def _misrendered_row(
    columns: Sequence[np.ndarray],
    order: np.ndarray,
    texts: Sequence[bytes],
    rows: Sequence[np.ndarray],
    shard_rows: Sequence[int],
) -> Optional[Tuple[int, int]]:
    """The shard and merged-table row of the first sampled row whose text
    is not the rendering of its merged columns, or None.

    ``rows`` locates each row's text (chunk, start, end) in the parts'
    concatenated order, shard by shard (``shard_rows`` rows each); row
    ``order[i]`` there is row ``i`` of the merged ``columns``.  The
    sample is each shard's first and last row and every
    :data:`_CHECK_EVERY`-th, so the digest, which hashes the text, still
    attests the columns every other metric reads against a fault in
    packing, transport or the merge, at O(rows / N) cost.
    """
    counts = np.asarray(shard_rows)
    ends = np.cumsum(counts)
    filled = counts > 0
    sample = np.unique(
        np.concatenate(
            (
                np.arange(0, ends[-1], _CHECK_EVERY),
                (ends - counts)[filled],
                ends[filled] - 1,
            )
        )
    )
    if not len(sample):
        return None
    at = np.empty_like(order)
    at[order] = np.arange(len(order))
    at = at[sample]
    expected = render_outcome_rows([column[at].tolist() for column in columns])
    which, first, last = (part[sample].tolist() for part in rows)
    for n, row in enumerate(expected):
        if texts[which[n]][first[n] : last[n]] != row.encode("ascii"):
            shard = int(np.searchsorted(ends, sample[n], side="right"))
            return shard, int(at[n])
    return None


def _collect_reply_problem(reply) -> Optional[str]:
    """Why the merge cannot take ``reply`` as a ``collect`` answer, or
    None.

    A worker's reply is outside input: it must carry nine 1-D outcome
    columns of :data:`~repro.sim.metrics.OUTCOME_DTYPES` and equal
    length, its rows' text as a list of ASCII byte strings with one
    increasing int64 end offset per row, the last at the text's length
    and no row across two chunks, non-negative int counters and peak
    RSS, and a finite non-negative self-time (unchecked, a float qid
    column would be truncated to ints by the merge without a word).
    """
    columns = reply.get("columns") if isinstance(reply, Mapping) else None
    problem = _columns_problem(columns, OUTCOME_DTYPES, "outcome")
    if problem is not None:
        return problem
    text = reply.get("text")
    if not isinstance(text, list) or not all(
        isinstance(chunk, bytes) and chunk.isascii() for chunk in text
    ):
        return "the rows' text is not a list of ASCII strings"
    ends = reply.get("row_ends")
    if not (
        isinstance(ends, np.ndarray)
        and ends.ndim == 1
        and ends.dtype == np.int64
        and len(ends) == len(columns[0])
    ):
        return "row_ends is not a 1-D int64 array of %d offsets" % len(
            columns[0]
        )
    if (np.diff(ends, prepend=0) <= 0).any():
        return "row_ends is not increasing"
    last, size = (int(ends[-1]) if len(ends) else 0), sum(map(len, text))
    if last != size:
        return "row_ends ends at %d, the text has %d characters" % (last, size)
    counters = ("assigned", "exchanges", "closed_settled", "pending", "maxrss_kb")
    for key in counters:
        value = reply.get(key)
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, np.integer))
            or value < 0
        ):
            return "counter %r is %r: expected a non-negative int" % (
                key,
                value,
            )
    seconds = reply.get("self_time_s")
    if (
        isinstance(seconds, bool)
        or not isinstance(seconds, (int, float, np.integer))
        or not 0.0 <= seconds < math.inf
    ):
        return "self_time_s is %r: expected a finite non-negative number" % (
            seconds,
        )
    return None


class ShardedFederation:
    """Front of the sharded engine: owns the worker pool, the routing
    table and the residual plane.

    Construction mirrors :func:`repro.sim.federation.build_federation`
    minus the allocator (the mechanism is chosen per :meth:`run`, so one
    worker pool serves qa-nt and greedy back to back — ``perf/`` relies
    on this).  ``shards=1`` takes the single-process engine
    verbatim; ``shards>1`` runs the market planes described in the
    module docstring.  QA-NT prices with ``QantAllocator``'s
    defaults at every shard count.  ``market`` has one legal value left,
    and ``reconcile_interval`` is checked (>= 1) but moves nothing: the
    planes meet the coordinator only at ``reset`` and ``collect``.  Both
    leave with the next ``perf/`` maintenance change, which still
    passes them.
    """

    _MECHANISMS = ("qa-nt", "greedy")

    def __init__(
        self,
        specs,
        placement,
        classes,
        cost_model,
        config: Optional[FederationConfig] = None,
        shards: int = 1,
        mode: str = "fork",
        market: str = "local",
        reconcile_interval: int = 1,
    ) -> None:
        if shards <= 0:
            raise ValueError("need at least one shard")
        if market != "local":
            raise ValueError(
                "market=%r: the coordinator-market engine was removed, "
                "shard-local planes ('local') are the only market" % (market,)
            )
        if reconcile_interval < 1:
            raise ValueError("reconcile_interval must be >= 1")
        #: Per-shard frame-handling self-time of the last run, filled by
        #: the collect barrier; read through :meth:`shard_self_time_s`.
        self._shard_self_time_s: List[float] = []
        self._specs = specs
        self._placement = placement
        self._classes = classes
        self._cost_model = cost_model
        self._config = config or FederationConfig()
        self._shards = shards
        self._transport: Optional[ShardTransport] = None
        if shards == 1:
            self._plan = None
            return
        candidates_by_class = {
            qc.index: tuple(sorted(qc.candidate_nodes(placement)))
            for qc in classes
        }
        self._candidates = candidates_by_class
        node_ids = list(placement.node_ids)
        self._plan = plan_shards(candidates_by_class, node_ids, shards)
        self._num_nodes = len(node_ids)
        num_classes = len(classes)
        cost_rows: Dict[int, List[float]] = {
            nid: [math.inf] * num_classes for nid in node_ids
        }
        for qc in classes:
            for nid in candidates_by_class[qc.index]:
                cost_rows[nid][qc.index] = cost_model.execution_time_ms(
                    qc, specs[nid]
                )
        allowance_by_node = {
            nid: backlog_allowance_ms(self._config.period_ms, cost_rows[nid])
            for nid in node_ids
        }
        shard_inits = self._build_local_planes(
            cost_rows, allowance_by_node, num_classes
        )
        self._transport = ShardTransport(shard_inits, mode=mode)

    def _build_local_planes(
        self,
        cost_rows: Mapping[int, List[float]],
        allowance_by_node: Mapping[int, float],
        num_classes: int,
    ) -> List[Dict[str, object]]:
        """Partition the market into shard planes + the residual plane.

        Ownership is decided per affinity *component* (classes coupled
        by a shared bidder must share one plane's latch/busy state), via
        :func:`split_market_classes`.  Shard-owned components become one
        JSON-safe ``_MarketPlane`` init per shard; split components form
        the coordinator's in-process residual plane.  Candidate tuples
        keep their global ascending order, so a class's lane arrays are
        the same whichever plane owns it.
        """
        candidates_by_class = self._candidates
        owner = split_market_classes(candidates_by_class, self._plan)
        #: The routing table: class index → owning shard (-1 = residual).
        self._owner_of = np.array(
            [owner[k] for k in range(num_classes)], dtype=np.intp
        )
        plane_classes: List[List[int]] = [[] for _ in range(self._shards)]
        residual_classes: List[int] = []
        for k in sorted(owner):
            s = owner[k]
            if s >= 0:
                plane_classes[s].append(k)
            else:
                residual_classes.append(k)
        self._plane_classes = plane_classes
        self._residual_classes = residual_classes
        params = QantParameters()

        def plane_init(class_indices: Sequence[int]) -> Dict[str, object]:
            nodes = sorted(
                {
                    nid
                    for k in class_indices
                    for nid in candidates_by_class[k]
                }
            )
            return {
                "node_ids": nodes,
                "num_classes": num_classes,
                "costs": [cost_rows[nid] for nid in nodes],
                "allowances": [allowance_by_node[nid] for nid in nodes],
                "latency_seeds": [
                    derive_shard_seed(
                        self._config.seed, ("shard-node-latency", nid)
                    )
                    for nid in nodes
                ],
                "base_ms": self._config.latency.base_ms,
                "jitter_ms": self._config.latency.jitter_ms,
                "factor": 1.0 + params.adjustment,
                "floor": params.price_floor,
                "cap": params.price_cap,
                "adjustment": params.adjustment,
                "threshold": DEFAULT_ACTIVATION_THRESHOLD,
                "period_ms": self._config.period_ms,
                "classes": [
                    [k, list(candidates_by_class[k])] for k in class_indices
                ],
            }

        self._residual = _MarketPlane(plane_init(residual_classes))
        return [{"kind": "market", **plane_init(ks)} for ks in plane_classes]

    # -- lifecycle -----------------------------------------------------------

    @property
    def plan(self) -> Optional[ShardPlan]:
        """The node partition (None at ``shards=1``)."""
        return self._plan

    @property
    def transport(self) -> Optional[ShardTransport]:
        """The shard transport (None at ``shards=1``)."""
        return self._transport

    def close(self) -> None:
        """Shut the worker pool down (safe to call twice)."""
        if self._transport is not None:
            self._transport.close()

    def __enter__(self) -> "ShardedFederation":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- driving -------------------------------------------------------------

    def run(self, trace, mechanism: str = "qa-nt") -> ShardedRunResult:
        """Execute ``trace`` under ``mechanism`` and merge the outcomes."""
        if mechanism not in self._MECHANISMS:
            raise ValueError(
                "sharded federations support %s, not %r"
                % ("/".join(self._MECHANISMS), mechanism)
            )
        if not trace:
            raise ValueError("cannot run an empty workload trace")
        if self._shards == 1:
            return self._run_single(trace, mechanism)
        return self._run_local(self._trace_columns(trace), mechanism)

    def _trace_columns(self, trace) -> Tuple:
        """``trace`` as time-ordered ``(times, classes, origins)`` arrays.

        Checked before any frame is sent: a non-finite time, a class no
        plane owns or an origin outside the federation raises here, by
        name, instead of mis-sorting the trace, wrapping around an array
        index or dying mid-run inside a plane.
        A :class:`~repro.workload.Trace`'s columns are read as they are;
        a plain sequence of events is read field by field first.  The
        sort is stable, like the single-process engine's.
        """
        times, *indices = trace_columns(trace)
        finite = np.isfinite(times)
        if not finite.all():
            first = int(np.argmin(finite))
            raise ValueError(
                "trace event %d has time_ms %r: expected a finite time"
                % (first, trace[first].time_ms)
            )
        order = np.argsort(times, kind="stable")
        columns = [times[order]]
        for name, limit, column in zip(
            ("class_index", "origin_node"),
            (len(self._classes), self._num_nodes),
            indices,
        ):
            if column.dtype.kind not in "iub" or not (
                0 <= column.min() and column.max() < limit
            ):
                first, value = next(
                    (i, v)
                    for i, v in enumerate(getattr(e, name) for e in trace)
                    if not isinstance(v, (int, np.integer))
                    or not 0 <= v < limit
                )
                raise ValueError(
                    "trace event %d has %s %r: expected an integer in "
                    "[0, %d)" % (first, name, value, limit)
                )
            columns.append(column.astype(np.int64)[order])
        return tuple(columns)

    def _run_single(self, trace, mechanism: str) -> ShardedRunResult:
        """The ``shards=1`` delegation: literally the one-process engine."""
        metrics, messages = run_single_mechanism(
            self._specs,
            self._placement,
            self._classes,
            self._cost_model,
            trace,
            mechanism,
            self._config,
        )
        return ShardedRunResult(metrics, messages, shards=1)

    # -- the coordinator -------------------------------------------------------

    def _run_local(self, columns: Tuple, mechanism: str) -> ShardedRunResult:
        """The sharded engine: route once, post, collect, merge.

        The coordinator is *slim*: it owns a routing table and the
        residual plane (components split across shards); every
        shard-owned class is priced, matched and executed entirely
        shard-side.  The trace arrives as :meth:`_trace_columns` arrays
        (the row number is the qid) and is routed by owner once, with a
        stable sort, so each plane's slice keeps qid order.  Each shard
        gets its slice as one-way ``slice`` frames of four columns, cut
        at tick edges (:func:`_slice_batches`), then one one-way ``end``
        frame with the horizon and the end of the drain window; the
        residual plane ticks its own slice in-process, from the same
        columns, between the rounds of frames.
        Every plane takes its period boundaries and drains by itself
        (:meth:`_MarketPlane.run_slice`, :meth:`_MarketPlane.finish`),
        so the workers are met only at ``reset`` and ``collect``.
        Outcomes merge globally sorted by ``(finish_ms, qid)`` before
        any reduction; the rows the planes rendered keep that order for
        the digest.
        """
        transport = self._transport
        num_shards = self._plan.num_shards
        qa = mechanism == "qa-nt"
        collector = MetricsCollector()
        transport.barrier_wait_ms = 0.0
        transport.posted_frames = 0
        transport.exchange([("reset", qa)] * num_shards)
        residual = self._residual
        residual.reset(qa)
        times = columns[0]
        total = len(times)
        shard_of = self._owner_of[columns[1]]
        # One market tick per distinct timestamp, whoever owns its rows.
        edges = np.flatnonzero(times[1:] != times[:-1]) + 1
        collector.record_batch_ticks(
            np.diff(edges, prepend=0, append=total).tolist()
        )
        # The residual plane's rows (owner -1) sort first.
        by_owner = np.argsort(shard_of, kind="stable")
        starts = np.searchsorted(shard_of[by_owner], np.arange(num_shards))
        held, *owned = np.split(by_owner, starts)
        horizon = float(times[-1])
        end_of_run = horizon + self._config.drain_ms
        for mine, *batches in itertools.zip_longest(
            _slice_batches(columns, held),
            *(_slice_batches(columns, rows) for rows in owned),
        ):
            transport.post(
                [None if batch is None else ("slice", *batch) for batch in batches]
            )
            if mine is not None:
                residual.run_slice(mine)
        transport.post([("end", horizon, end_of_run)] * num_shards)
        residual.finish(horizon, end_of_run)
        # The one barrier after reset: outcome columns and rows, RSS,
        # self-time.
        replies = transport.exchange([("collect",)] * num_shards)
        assigned_per_shard = []
        self_times = []
        collected = residual.outcome()
        exchanges = collected["exchanges"]
        closed_settled = collected["closed_settled"]
        dropped = collected["pending"]
        peak_kb = 0
        # Every shard's text chunks in one list, never joined: a row is a
        # slice of one chunk.
        texts: List[bytes] = []
        located = []
        shard_rows = []
        for shard, reply in enumerate(replies):
            problem = _collect_reply_problem(reply)
            if problem is None:
                which, starts, ends = _locate_rows(reply["text"], reply["row_ends"])
                if (starts < 0).any():
                    problem = "a row straddles two text chunks"
            if problem is not None:
                raise ShardFailure(shard, "collect", ProtocolError(problem))
            located.append((which + len(texts), starts, ends))
            texts.extend(reply["text"])
            shard_rows.append(len(ends))
            assigned_per_shard.append(reply["assigned"])
            exchanges += reply["exchanges"]
            closed_settled += reply["closed_settled"]
            dropped += reply["pending"]
            self_times.append(float(reply["self_time_s"]))
            peak_kb = max(peak_kb, int(reply["maxrss_kb"]))
        transport.note_child_peak_kb(peak_kb)
        self._shard_self_time_s = self_times
        # The residual plane's rows have no text: the digest renders them.
        own = len(collected["columns"][0])
        nowhere = np.zeros(own, dtype=np.int64)
        located.append((np.full(own, -1), nowhere, nowhere))
        # Fixed shard order, then the residual plane's rows.
        parts = [reply["columns"] for reply in replies]
        parts.append(collected["columns"])
        del replies, collected
        order = np.lexsort(
            tuple(np.concatenate([part[n] for part in parts]) for n in (0, 7))
        )
        columns = [np.concatenate(column)[order] for column in zip(*parts)]
        del parts
        rows = [np.concatenate(part) for part in zip(*located)]
        del located
        bad = _misrendered_row(columns, order, texts, rows, shard_rows)
        if bad is not None:
            shard, row = bad
            raise ShardFailure(
                shard,
                "collect",
                ProtocolError(
                    "row %d's text is not the rendering of its merged columns"
                    % row
                ),
            )
        rendered = [part[order] for part in rows]
        del rows
        collector.record_outcomes(columns, dropped=dropped, _pairwise_sum=True)
        total_assigned = sum(assigned_per_shard)
        imbalance = 1.0
        if assigned_per_shard and total_assigned:
            imbalance = max(assigned_per_shard) / (
                total_assigned / len(assigned_per_shard)
            )
        collector.add_counters(
            vector_exchanges=exchanges,
            cross_shard_bids=len(held),
            barrier_wait_ms=transport.barrier_wait_ms,
            shard_imbalance=imbalance,
            shards=num_shards,
            local_classes=sum(len(ks) for ks in self._plane_classes),
            residual_classes=len(self._residual_classes),
            closed_settled=closed_settled,
        )
        # One protocol-level bid per shard-routed row, however batched.
        return ShardedRunResult(
            collector,
            total - len(held),
            num_shards,
            rendered=(texts, *rendered),
        )

    def shard_self_time_s(self) -> List[float]:
        """Per-shard aggregate frame-handling self-time of the last run
        (seconds, fixed shard order; empty before any sharded run)."""
        return list(self._shard_self_time_s)
