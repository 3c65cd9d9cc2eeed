"""Measurement layer: the run's outcome table and the paper's summary metrics.

The paper reports, per experiment, the number of queries executed per time
period, the average query response time (normalised against QA-NT's), the
time to assign a query to a node (Fig. 7), and the length of the overload
period (introduction example).  All of these are reductions over one
table collected here: nine typed columns, one row per completed query in
completion order, written once per run by either engine
(:meth:`MetricsCollector.record_outcomes`).  Beside it the collector
keeps the run's counts, among them the messages QA-NT spends (§5.1), in
one mapping whose every key :data:`_COUNTERS` names.
"""

from __future__ import annotations

import hashlib
import math
from types import MappingProxyType
from typing import Dict, List, NamedTuple, Optional, Sequence

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
#: :class:`QueryOutcome` field order; only :func:`render_outcome_rows`
#: formats it.
_OUTCOME_ROW = "%d,%d,%d,%r,%r,%d,%r,%r,%d;"

#: Rows per chunk that an outcome digest hashes.
_DIGEST_ROWS = 4096


def render_outcome_rows(columns: Sequence[Sequence[float]]) -> List[str]:
    """Each row of the nine :class:`QueryOutcome` ``columns`` as the text
    an outcome digest hashes: ``%r`` of a float is its shortest
    round-trip repr, so two rows render equal iff every bit is equal.

    The columns must hold Python numbers (``.tolist()``): ``%r`` of a
    numpy scalar is ``np.float64(...)`` on numpy >= 2, not the bare repr.
    The collector (:meth:`MetricsCollector.outcome_digest`) and the
    sharded engine's planes, which render their own rows, both call this.
    """
    return [_OUTCOME_ROW % row for row in zip(*columns)]


def _left_to_right_sum(values: np.ndarray) -> float:
    """One addition per element, in row order (``add.accumulate`` is
    sequential; ``np.sum`` is pairwise)."""
    return float(np.cumsum(values)[-1])


#: Every run counter, once: its starting value (whose type, an int count
#: or a float, the counter keeps) under the summary that publishes it, in
#: publication order.  :meth:`MetricsCollector.batch_summary` publishes
#: the ``"batch"`` group, then the ``"shard"`` group, whose keys are
#: absent until a sharded run writes one of them.
_COUNTERS: Dict[str, Dict[str, float]] = {
    # The protocol cost of allocation attempts: every attempt reports the
    # messages and latency its bid/dispatch exchanges cost
    # (:meth:`MetricsCollector.record_exchange`).
    "negotiation": {
        "exchanges": 0,  # attempts whose protocol cost was recorded
        "refused_exchanges": 0,  # ended unassigned (refusal or silence)
        "negotiation_messages": 0,  # network messages spent on exchanges
        "negotiation_delay_ms": 0.0,  # total client-side latency
    },
    # Market-tick batching (all zero when batching is off) and the
    # allocator's dispatcher counters.
    "batch": {
        "batch_ticks": 0,  # same-tick arrival groups sent to assign_batch
        "batched_queries": 0,  # queries allocated inside those groups
        "max_batch": 0,  # largest single group
        "vector_exchanges": 0,  # request-for-bid exchanges on the vector path
        # No exchange drops to the listing any more; the key stays for
        # the artifacts that pin it.
        "scalar_fallbacks": 0,
        "batch_syncs": 0,  # periods, the last included, with a vector exchange
    },
    # Sharded-run coordination (see repro.sim.shards); each is written
    # once per run.
    "shard": {
        "cross_shard_bids": 0,  # bids priced by the residual plane
        "barrier_wait_ms": 0.0,  # coordinator wall time blocked at barriers
        "shard_imbalance": 0.0,  # max over mean of per-shard assignments
        "shards": 0,
        # Planes meet the coordinator at reset and collect only; the key
        # stays, at its true count, while ``perf/`` reads it.
        "reconcile_barriers": 0,
        "local_classes": 0,  # classes priced inside a shard's plane
        "residual_classes": 0,  # classes priced by the coordinator
        # Of vector_exchanges, those the planes answered on a *closed*
        # class with the price raise alone (DESIGN.md §7).
        "closed_settled": 0,
    },
    # The fault injector's (all zero unless one ran; see repro.sim.faults).
    "fault": {
        "timeouts": 0,  # bid-reply timeouts clients experienced
        "lost_messages": 0,  # messages lost to drops and partitions
        "degraded_assignments": 0,  # made from stale info under silence
        "fault_retries": 0,  # resubmissions through the backoff policy
        "crash_count": 0,  # churn-induced node crashes
        "partition_ms": 0.0,  # time during which any partition was active
    },
}

#: Every counter's starting value, by name.
_START = {name: start for group in _COUNTERS.values() for name, start in group.items()}


class MetricsCollector:
    """Holds a run's outcome table and counters, and derives the paper's
    metrics."""

    def __init__(self) -> None:
        self.record_outcomes([()] * len(OUTCOME_DTYPES))
        self._counters = {
            name: start
            for group in ("negotiation", "batch", "fault")
            for name, start in _COUNTERS[group].items()
        }
        #: The run's counters by name, read-only (:data:`_COUNTERS`).
        self.counters = MappingProxyType(self._counters)

    # -- recording ---------------------------------------------------------------

    def record_outcomes(
        self,
        columns: Sequence[Sequence[float]],
        in_flight: int = 0,
        dropped: int = 0,
        *,
        unfinished_wait_ms: Optional[Sequence[float]] = None,
        _pairwise_sum: bool = False,
    ) -> None:
        """Write the run's outcome table.

        ``columns`` are the nine :class:`QueryOutcome` fields, in field
        order, one row per completed query in completion order; they are
        stored as :data:`OUTCOME_DTYPES` arrays.  ``in_flight`` counts
        assigned queries still queued or running when the run ended and
        ``dropped`` queries it never assigned.  ``unfinished_wait_ms``,
        from an engine that knows them, holds one ``end_of_run -
        arrival`` per in-flight or dropped query
        (:meth:`censored_mean_response_ms`).

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
        self._unfinished_wait_ms = unfinished_wait_ms

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
        counters = self._counters
        counters["exchanges"] += 1
        if not assigned:
            counters["refused_exchanges"] += 1
        counters["negotiation_messages"] += messages
        counters["negotiation_delay_ms"] += delay_ms

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
        counters = self._counters
        counters["exchanges"] += len(delays_ms)
        counters["refused_exchanges"] += refused
        counters["negotiation_messages"] += sum(messages)
        total = counters["negotiation_delay_ms"]
        for delay_ms in delays_ms:
            total += delay_ms
        counters["negotiation_delay_ms"] = total

    def record_batch_ticks(self, sizes: Sequence[int]) -> None:
        """Record same-tick arrival groups dispatched as batches, one per
        entry of ``sizes``."""
        if sizes:
            counters = self._counters
            counters["batch_ticks"] += len(sizes)
            counters["batched_queries"] += sum(sizes)
            counters["max_batch"] = max(counters["max_batch"], max(sizes))

    def add_counters(self, **counts: float) -> None:
        """Add each named count to its counter, converted to the
        counter's type: a run's end-of-run snapshots of its dispatcher,
        period engine, fault injector or shards.

        The first shard counter written brings in the whole shard group
        (single-process runs carry none of it).  A name
        :data:`_COUNTERS` does not hold raises ``KeyError`` before any
        count is added.
        """
        unknown = sorted(counts.keys() - _START.keys())
        if unknown:
            raise KeyError("no run counter named %s" % ", ".join(unknown))
        counters = self._counters
        for name, count in counts.items():
            if name not in counters:
                counters.update(_COUNTERS["shard"])
            counters[name] += type(_START[name])(count)

    # -- raw access ----------------------------------------------------------------

    @property
    def outcomes(self) -> List[QueryOutcome]:
        """The outcome table's rows, in completion order."""
        rows = zip(*(column.tolist() for column in self._table))
        return list(map(QueryOutcome._make, rows))

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

    # -- counter summaries (sweep-cell currency) ------------------------------

    def _view(self, *groups: str) -> Dict[str, float]:
        counters = self._counters
        return {
            name: float(counters[name])
            for group in groups
            for name in _COUNTERS[group]
            if name in counters
        }

    def negotiation_summary(self) -> Dict[str, float]:
        """The protocol-exchange counters as one flat mapping."""
        return self._view("negotiation")

    def batch_summary(self) -> Dict[str, float]:
        """The batching counters, then, on sharded runs only, the shard
        coordination counters, as one flat mapping."""
        return self._view("batch", "shard")

    def fault_summary(self) -> Dict[str, float]:
        """The fault counters as one flat mapping."""
        return self._view("fault")

    # -- headline metrics -------------------------------------------------------------

    def _mean(self, column: np.ndarray) -> float:
        n = self.completed
        return float(self._sum(column)) / n if n else math.nan

    def mean_response_ms(self) -> float:
        """Average query response time (NaN when nothing completed)."""
        return self._mean(self._table.response_ms)

    def censored_mean_response_ms(self) -> float:
        """Average response over every offered query, completed or not.

        A query left in flight or dropped counts its wait until the run
        ended, a lower bound on its response, so a run that cuts off its
        slowest queries cannot score better for it.  Equals
        :meth:`mean_response_ms` when every query finished.  Raises
        ``ValueError`` when queries did not finish and the engine
        recorded no wait for them (the sharded planes do not).
        """
        waits = self._unfinished_wait_ms
        if waits is None:
            unfinished = self._in_flight + self._dropped
            if unfinished:
                raise ValueError(
                    "%d queries did not finish and the engine recorded no "
                    "wait for them" % unfinished
                )
            waits = ()
        offered = np.concatenate((self._table.response_ms, waits))
        if not len(offered):
            return math.nan
        return float(self._sum(offered)) / len(offered)

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
        hash equal iff every recorded bit is equal.  The rows are hashed
        :data:`_DIGEST_ROWS` at a time, so the text of the whole table
        never exists at once.
        """
        digest = hashlib.sha256()
        table = self._table
        for lo in range(0, len(table.qid), _DIGEST_ROWS):
            rows = render_outcome_rows(
                [column[lo : lo + _DIGEST_ROWS].tolist() for column in table]
            )
            digest.update("".join(rows).encode())
        return digest.hexdigest()

    def rendered_outcome_digest(
        self,
        texts: Sequence[str],
        which: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
    ) -> str:
        """:meth:`outcome_digest` of this table, whose row ``i`` was
        rendered elsewhere (:func:`render_outcome_rows`) as
        ``texts[which[i]][starts[i]:ends[i]]``; a row whose ``which`` is
        -1 has no text and is rendered here."""
        digest = hashlib.sha256()
        table = self._table
        for lo in range(0, len(ends), _DIGEST_ROWS):
            hi = lo + _DIGEST_ROWS
            chunk = which[lo:hi]
            here = np.flatnonzero(chunk < 0)
            fresh = iter(
                render_outcome_rows(
                    [column[lo:hi][here].tolist() for column in table]
                )
            )
            rows = [
                texts[t][s:e] if t >= 0 else next(fresh)
                for t, s, e in zip(
                    chunk.tolist(), starts[lo:hi].tolist(), ends[lo:hi].tolist()
                )
            ]
            digest.update("".join(rows).encode())
        return digest.hexdigest()

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
