"""The sharded engine's coordinator: routing, the residual plane and the
merge (:class:`ShardedFederation`), and the merged result
(:class:`ShardedRunResult`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ...core.qant import (
    DEFAULT_ACTIVATION_THRESHOLD,
    QantParameters,
    backlog_allowance_ms,
)
from ...protocol.messages import ProtocolError
from ...workload.trace import trace_columns
from ..faults import derive_fault_seed
from ..federation import FederationConfig, run_single_mechanism
from ..metrics import OUTCOME_DTYPES, MetricsCollector, render_outcome_rows
from .plan import ShardPlan, plan_shards, split_market_classes
from .plane import _MarketPlane, _columns_problem
from .wire import ShardFailure, ShardTransport


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
                    derive_fault_seed(
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
                # Every routed row is an outcome or still pending: a
                # plane finishes every assignment it makes.
                accounted = len(reply["columns"][0]) + reply["pending"]
                if accounted != len(owned[shard]):
                    problem = (
                        "the reply accounts for %d rows, %d were routed "
                        "to the shard" % (accounted, len(owned[shard]))
                    )
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
