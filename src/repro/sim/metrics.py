"""Measurement layer: the run's outcome table and the paper's summary metrics.

The paper reports, per experiment, the number of queries executed per time
period, the average query response time (normalised against QA-NT's), the
time to assign a query to a node (Fig. 7), and the length of the overload
period (introduction example).  All of these are reductions over one
table collected here: nine typed columns, one row per completed query in
completion order, written once per run by either engine
(:meth:`MetricsCollector.record_outcomes`).
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence

import numpy as np

__all__ = [
    "QueryOutcome",
    "MetricsCollector",
    "normalised_response_times",
    "recovery_time_ms",
]


class QueryOutcome(NamedTuple):
    """Full life cycle of one query through the system: one row of the
    outcome table (:attr:`MetricsCollector.outcomes`).

    The collector keeps the table itself as a ``QueryOutcome`` whose
    fields are the columns, so the properties below read whole columns
    as well as one row.
    """

    qid: int
    class_index: int
    origin_node: int
    arrival_ms: float
    assigned_ms: float
    node_id: int
    start_ms: float
    finish_ms: float
    resubmissions: int = 0

    @property
    def response_ms(self) -> float:
        """End-to-end response time the client experienced."""
        return self.finish_ms - self.arrival_ms

    @property
    def assign_ms(self) -> float:
        """Time from arrival to node assignment (Fig. 7's 'time to assign')."""
        return self.assigned_ms - self.arrival_ms

    @property
    def execution_ms(self) -> float:
        """Pure execution time on the chosen node."""
        return self.finish_ms - self.start_ms


#: The outcome table's column dtypes, in :class:`QueryOutcome` field order.
OUTCOME_DTYPES = (
    np.int64, np.int64, np.int64, np.float64, np.float64,
    np.int64, np.float64, np.float64, np.int64,
)

#: One outcome's row of :meth:`MetricsCollector.outcome_digest`, in
#: :class:`QueryOutcome` field order.
_OUTCOME_ROW = "%d,%d,%d,%r,%r,%d,%r,%r,%d;"


def _left_to_right_sum(values: np.ndarray) -> float:
    """One addition per element, in row order (``add.accumulate`` is
    sequential; ``np.sum`` is pairwise)."""
    return float(np.cumsum(values)[-1])


class MetricsCollector:
    """Holds a run's outcome table and derives the paper's metrics."""

    def __init__(self) -> None:
        self.record_outcomes([()] * len(OUTCOME_DTYPES))
        # Fault-layer counters (all zero unless a fault injector ran; see
        # repro.sim.faults).  Snapshotted once at the end of a faulted run.
        self._timeouts = 0
        self._lost_messages = 0
        self._degraded_assignments = 0
        self._fault_retries = 0
        self._crash_count = 0
        self._partition_ms = 0.0
        # Negotiation counters derived from protocol exchanges: every
        # allocation attempt reports the messages and latency its
        # bid/dispatch exchanges cost (see FederationSimulation._try_assign).
        self._exchanges = 0
        self._refused_exchanges = 0
        self._negotiation_messages = 0
        self._negotiation_delay_ms = 0.0
        # Market-tick batching counters (all zero when batching is off):
        # how often same-timestamp arrivals were dispatched as one batch,
        # plus the allocator-side dispatcher counters snapshotted at the
        # end of the run (see FederationSimulation.run).
        self._batch_ticks = 0
        self._batched_queries = 0
        self._max_batch = 0
        self._vector_exchanges = 0
        self._batch_syncs = 0
        # Per-agent adopt/materialise passes of the QA-NT period engine
        # (zero for mechanisms without one).
        self._market_adopted = 0
        self._market_materialised = 0
        # Sharded-federation counters (see repro.sim.shards).  The
        # `_shard_stats_applied` flag gates their presence in
        # `batch_summary()`: single-process runs do not carry them.
        self._shard_stats_applied = False
        self._cross_shard_bids = 0
        self._barrier_wait_ms = 0.0
        self._shard_imbalance = 1.0
        self._shards = 1
        self._local_classes = 0
        self._residual_classes = 0
        self._closed_settled = 0

    # -- recording ---------------------------------------------------------------

    def record_outcomes(
        self,
        columns: Sequence[Sequence[float]],
        in_flight: int = 0,
        dropped: int = 0,
        *,
        _pairwise_sum: bool = False,
    ) -> None:
        """Write the run's outcome table.

        ``columns`` are the nine :class:`QueryOutcome` fields, in field
        order, one row per completed query in completion order; they are
        stored as :data:`OUTCOME_DTYPES` arrays.  ``in_flight`` counts
        assigned queries still queued or running when the run ended and
        ``dropped`` queries it never assigned.

        The means are order-sensitive float sums.  The event engine's are
        left to right in row order, the planes' are ``np.sum``'s pairwise
        program (``_pairwise_sum``), and the goldens pin both; ROADMAP
        item 8's re-record keeps one and removes the keyword.
        """
        self._table = QueryOutcome._make(
            np.asarray(column, dtype)
            for column, dtype in zip(columns, OUTCOME_DTYPES)
        )
        self._sum = np.sum if _pairwise_sum else _left_to_right_sum
        self._in_flight = in_flight
        self._dropped = dropped

    def record_exchange(
        self, messages: int, delay_ms: float, assigned: bool
    ) -> None:
        """Record the protocol cost of one allocation attempt.

        ``messages`` and ``delay_ms`` are the network legs and client-side
        latency of the attempt's bid/dispatch exchanges (an
        :class:`~repro.allocation.base.AssignmentDecision` carries them
        verbatim from the transport's
        :class:`~repro.protocol.transport.FanoutResult`); ``assigned`` is
        False when the attempt ended in refusal or silence and the query
        re-enters the pending pool.
        """
        self._exchanges += 1
        if not assigned:
            self._refused_exchanges += 1
        self._negotiation_messages += messages
        self._negotiation_delay_ms += delay_ms

    def record_exchanges(
        self, messages: Sequence[int], delays_ms: Sequence[float], refused: int
    ) -> None:
        """Bulk :meth:`record_exchange`: one attempt per row of the columns.

        ``refused`` is how many of the rows ended unassigned.  The delay
        total is accumulated left to right, one addition per row — the
        float additions N scalar calls perform, in their order.  (Not
        builtin ``sum``: it is compensated on Python >= 3.12, so the
        total would depend on the interpreter.)
        """
        self._exchanges += len(delays_ms)
        self._refused_exchanges += refused
        self._negotiation_messages += sum(messages)
        total = self._negotiation_delay_ms
        for delay_ms in delays_ms:
            total += delay_ms
        self._negotiation_delay_ms = total

    def record_batch_tick(self, size: int) -> None:
        """Record one same-tick arrival group dispatched as a batch."""
        self._batch_ticks += 1
        self._batched_queries += size
        if size > self._max_batch:
            self._max_batch = size

    def record_batch_ticks(self, sizes: Sequence[int]) -> None:
        """Bulk :meth:`record_batch_tick`: one tick per entry of ``sizes``."""
        if sizes:
            self._batch_ticks += len(sizes)
            self._batched_queries += sum(sizes)
            self._max_batch = max(self._max_batch, max(sizes))

    def apply_batch_stats(
        self,
        vector_exchanges: int = 0,
        syncs: int = 0,
    ) -> None:
        """Snapshot an allocator's batch-dispatcher counters.

        Called once by the federation at the end of a run whose allocator
        exposes ``batch_dispatch_stats``, so the dispatch telemetry
        travels with the query metrics.  ``syncs`` (``batch_syncs``) are
        the periods, the last one included, that saw at least one vector
        exchange.
        """
        self._vector_exchanges += int(vector_exchanges)
        self._batch_syncs += int(syncs)

    def apply_market_state_stats(
        self, adopted: int = 0, materialised: int = 0
    ) -> None:
        """Snapshot a period engine's adopt/materialise counters.

        An array run reads one adopt and one materialise on top of the
        bind-time boundary's, however it is observed; a scalar run one
        of each per period.
        """
        self._market_adopted += int(adopted)
        self._market_materialised += int(materialised)

    def apply_shard_stats(
        self,
        cross_shard_bids: int = 0,
        barrier_wait_ms: float = 0.0,
        shard_imbalance: float = 1.0,
        shards: int = 1,
        local_classes: int = 0,
        residual_classes: int = 0,
        closed_settled: int = 0,
    ) -> None:
        """Snapshot a sharded run's coordination counters.

        Called once by :class:`repro.sim.shards.ShardedFederation` at
        the end of a multi-process run; arms the shard keys of
        :meth:`batch_summary` (single-process summaries stay unchanged).
        ``closed_settled`` counts, out of ``vector_exchanges``, the
        exchanges the planes answered on a *closed* class with the price
        raise alone (DESIGN.md §7).
        """
        self._shard_stats_applied = True
        self._cross_shard_bids += int(cross_shard_bids)
        self._barrier_wait_ms += float(barrier_wait_ms)
        self._shard_imbalance = float(shard_imbalance)
        self._shards = int(shards)
        self._local_classes = int(local_classes)
        self._residual_classes = int(residual_classes)
        self._closed_settled += int(closed_settled)

    def apply_fault_stats(
        self,
        timeouts: int = 0,
        lost_messages: int = 0,
        degraded_assignments: int = 0,
        fault_retries: int = 0,
        crash_count: int = 0,
        partition_ms: float = 0.0,
    ) -> None:
        """Snapshot the fault injector's counters into this collector.

        Called once by the federation at the end of a faulted run, so the
        fault metrics travel with the query metrics (and through the
        sweep runner's flat cell dicts).
        """
        self._timeouts += int(timeouts)
        self._lost_messages += int(lost_messages)
        self._degraded_assignments += int(degraded_assignments)
        self._fault_retries += int(fault_retries)
        self._crash_count += int(crash_count)
        self._partition_ms += float(partition_ms)

    # -- raw access ----------------------------------------------------------------

    @property
    def outcomes(self) -> List[QueryOutcome]:
        """The outcome table's rows, in completion order."""
        return list(map(QueryOutcome._make, self._rows()))

    def _rows(self) -> Iterator[tuple]:
        # ``.tolist()`` gives Python numbers: ``%r`` of a numpy scalar is
        # ``np.float64(...)`` on numpy >= 2, not the bare float repr.
        return zip(*(column.tolist() for column in self._table))

    @property
    def completed(self) -> int:
        """Number of queries that finished."""
        return len(self._table.qid)

    @property
    def dropped(self) -> int:
        """Number of queries still unserved when the simulation ended."""
        return self._dropped

    @property
    def in_flight(self) -> int:
        """Assigned queries still queued or running when the simulation
        ended; offered = completed + dropped + in_flight."""
        return self._in_flight

    # -- negotiation metrics -------------------------------------------------------

    @property
    def exchanges(self) -> int:
        """Allocation attempts whose protocol cost was recorded."""
        return self._exchanges

    @property
    def refused_exchanges(self) -> int:
        """Attempts that ended unassigned (refusal or total silence)."""
        return self._refused_exchanges

    @property
    def negotiation_messages(self) -> int:
        """Network messages spent on bid/dispatch exchanges."""
        return self._negotiation_messages

    @property
    def negotiation_delay_ms(self) -> float:
        """Total client-side negotiation latency across all attempts."""
        return self._negotiation_delay_ms

    def mean_negotiation_delay_ms(self) -> float:
        """Average negotiation latency per allocation attempt."""
        if not self._exchanges:
            return math.nan
        return self._negotiation_delay_ms / self._exchanges

    def negotiation_summary(self) -> Dict[str, float]:
        """The protocol-exchange counters as one flat mapping."""
        return {
            "exchanges": float(self._exchanges),
            "refused_exchanges": float(self._refused_exchanges),
            "negotiation_messages": float(self._negotiation_messages),
            "negotiation_delay_ms": self._negotiation_delay_ms,
        }

    # -- market-tick batching metrics ----------------------------------------------

    @property
    def batch_ticks(self) -> int:
        """Same-tick arrival groups dispatched through ``assign_batch``."""
        return self._batch_ticks

    @property
    def batched_queries(self) -> int:
        """Queries allocated inside batch dispatches."""
        return self._batched_queries

    @property
    def max_batch(self) -> int:
        """Largest single batch dispatched."""
        return self._max_batch

    @property
    def vector_exchanges(self) -> int:
        """Request-for-bid exchanges answered on the vector path."""
        return self._vector_exchanges

    @property
    def cross_shard_bids(self) -> int:
        """BidRequest broadcasts delivered across shard boundaries."""
        return self._cross_shard_bids

    @property
    def barrier_wait_ms(self) -> float:
        """Wall-clock time the coordinator spent blocked at barriers."""
        return self._barrier_wait_ms

    @property
    def shard_imbalance(self) -> float:
        """Max-over-mean of per-shard assigned-query counts."""
        return self._shard_imbalance

    def batch_summary(self) -> Dict[str, float]:
        """The batching counters as one flat mapping (sweep-cell currency).

        Sharded runs (see :meth:`apply_shard_stats`) additionally carry
        the shard coordination counters; those keys are absent otherwise.
        """
        summary = {
            "batch_ticks": float(self._batch_ticks),
            "batched_queries": float(self._batched_queries),
            "max_batch": float(self._max_batch),
            "vector_exchanges": float(self._vector_exchanges),
            # No exchange of an array run drops to the listing any more;
            # the key stays for the artifacts that pin it.
            "scalar_fallbacks": 0.0,
            "batch_syncs": float(self._batch_syncs),
            "market_adopted": float(self._market_adopted),
            "market_materialised": float(self._market_materialised),
        }
        if self._shard_stats_applied:
            summary["cross_shard_bids"] = float(self._cross_shard_bids)
            summary["barrier_wait_ms"] = self._barrier_wait_ms
            summary["shard_imbalance"] = self._shard_imbalance
            summary["shards"] = float(self._shards)
            # Planes meet the coordinator at reset and collect only; the
            # key stays, at its true count, while ``perf/`` reads it.
            summary["reconcile_barriers"] = 0.0
            summary["local_classes"] = float(self._local_classes)
            summary["residual_classes"] = float(self._residual_classes)
            summary["closed_settled"] = float(self._closed_settled)
        return summary

    # -- fault metrics -------------------------------------------------------------

    @property
    def timeouts(self) -> int:
        """Bid-reply timeouts clients experienced (fault runs only)."""
        return self._timeouts

    @property
    def lost_messages(self) -> int:
        """Messages lost to drops and partitions (fault runs only)."""
        return self._lost_messages

    @property
    def degraded_assignments(self) -> int:
        """Assignments made from stale cached info under total silence."""
        return self._degraded_assignments

    @property
    def fault_retries(self) -> int:
        """Resubmissions scheduled through the backoff policy."""
        return self._fault_retries

    @property
    def crash_count(self) -> int:
        """Churn-induced node crashes injected during the run."""
        return self._crash_count

    @property
    def partition_ms(self) -> float:
        """Total time during which any network partition was active."""
        return self._partition_ms

    def fault_summary(self) -> Dict[str, float]:
        """The fault counters as one flat mapping (sweep-cell currency)."""
        return {
            "timeouts": float(self._timeouts),
            "lost_messages": float(self._lost_messages),
            "degraded_assignments": float(self._degraded_assignments),
            "fault_retries": float(self._fault_retries),
            "crash_count": float(self._crash_count),
            "partition_ms": self._partition_ms,
        }

    # -- headline metrics -------------------------------------------------------------

    def _mean(self, column: np.ndarray) -> float:
        n = self.completed
        return float(self._sum(column)) / n if n else math.nan

    def mean_response_ms(self) -> float:
        """Average query response time (NaN when nothing completed)."""
        return self._mean(self._table.response_ms)

    def mean_assign_ms(self) -> float:
        """Average time to assign a query to a node (Fig. 7 metric)."""
        return self._mean(self._table.assign_ms)

    def mean_resubmissions(self) -> float:
        """Average number of resubmissions per completed query."""
        return self._mean(self._table.resubmissions)

    def last_finish_ms(self) -> float:
        """When the system drained — the end of the overload period."""
        return float(self._table.finish_ms.max(initial=0.0))

    def percentile_response_ms(self, fraction: float) -> float:
        """Response-time percentile, e.g. ``fraction=0.95`` for p95."""
        if not 0 <= fraction <= 1:
            raise ValueError("fraction must be in [0, 1]")
        n = self.completed
        if not n:
            return math.nan
        ordered = np.sort(self._table.response_ms)
        return float(ordered[min(n - 1, int(fraction * n))])

    def outcome_digest(self) -> str:
        """SHA-256 over every field of every outcome, completion order.

        ``%r`` of a float is its shortest round-trip repr, so two runs
        hash equal iff every recorded bit is equal.
        """
        text = "".join(_OUTCOME_ROW % row for row in self._rows())
        return hashlib.sha256(text.encode()).hexdigest()

    # -- per-period series (the x-axes of Figs. 3-5) ----------------------------------

    def executed_per_period(
        self,
        period_ms: float,
        horizon_ms: float,
        class_index: Optional[int] = None,
    ) -> List[int]:
        """Queries finished in each period of length ``period_ms`` inside
        ``[0, horizon_ms)``.

        ``class_index`` restricts the count to one class (Fig. 5c plots Q1
        executions per half-second).
        """
        if period_ms <= 0:
            raise ValueError("period must be positive")
        finish = self._table.finish_ms
        if class_index is not None:
            finish = finish[self._table.class_index == class_index]
        num_periods = max(1, int(math.ceil(horizon_ms / period_ms)))
        counts = [0] * num_periods
        for finish_ms in finish.tolist():
            bucket = int(finish_ms // period_ms)
            if 0 <= bucket < num_periods:
                counts[bucket] += 1
        return counts

    def mean_response_by_class(self) -> Dict[int, float]:
        """Average response time per query class."""
        sums: Dict[int, float] = {}
        counts: Dict[int, int] = {}
        for k, response_ms in zip(
            self._table.class_index.tolist(), self._table.response_ms.tolist()
        ):
            sums[k] = sums.get(k, 0.0) + response_ms
            counts[k] = counts.get(k, 0) + 1
        return {k: sums[k] / counts[k] for k in sums}


def normalised_response_times(
    baseline: MetricsCollector, collectors: Dict[str, MetricsCollector]
) -> Dict[str, float]:
    """Each mechanism's mean response divided by the baseline's.

    The paper normalises every algorithm's response time by QA-NT's, so
    QA-NT plots at 1.0 and larger is worse.
    """
    reference = baseline.mean_response_ms()
    if not reference or math.isnan(reference):
        raise ValueError("baseline has no completed queries to normalise by")
    return {
        name: collector.mean_response_ms() / reference
        for name, collector in collectors.items()
    }


def recovery_time_ms(
    collector: MetricsCollector,
    baseline_ms: float,
    from_ms: float,
    window_ms: float = 2_000.0,
    factor: float = 1.5,
) -> float:
    """Time after ``from_ms`` until response times return to baseline.

    Buckets the responses of queries *arriving* at or after ``from_ms``
    (the end of an outage or partition window) into ``window_ms`` bins
    and returns the end of the first non-empty bin whose mean response is
    within ``factor`` times ``baseline_ms`` — the per-phase recovery time
    the failure and chaos experiments report.  NaN when the system never
    recovers within the recorded horizon (or the baseline is unusable).
    """
    if window_ms <= 0:
        raise ValueError("window must be positive")
    if factor <= 0:
        raise ValueError("factor must be positive")
    if not baseline_ms or math.isnan(baseline_ms):
        return math.nan
    sums: Dict[int, float] = {}
    counts: Dict[int, int] = {}
    for outcome in collector.outcomes:
        if outcome.arrival_ms < from_ms:
            continue
        bucket = int((outcome.arrival_ms - from_ms) // window_ms)
        sums[bucket] = sums.get(bucket, 0.0) + outcome.response_ms
        counts[bucket] = counts.get(bucket, 0) + 1
    threshold = factor * baseline_ms
    for bucket in sorted(counts):
        if sums[bucket] / counts[bucket] <= threshold:
            return (bucket + 1) * window_ms
    return math.nan
