"""The federation simulation: nodes + allocator + workload + metrics.

This is the counterpart of the paper's C++ simulator (Section 5.1): it
wires the simulated RDBMS nodes, the network, one allocation mechanism and
a workload trace into a single discrete-event run and collects the metrics
the paper reports.

The lifecycle per run:

1. a period tick fires every ``period_ms`` (the paper's ``T`` = 500 ms):
   the allocator's :meth:`on_period_start` runs (QA-NT recomputes supply
   vectors) and previously refused queries are resubmitted;
2. every trace event creates a :class:`repro.query.Query` and asks the
   allocator for a decision; refusals join the pending pool, acceptances
   enqueue at the chosen node after the negotiation delay;
3. a serial node fixes an enqueued query's start and finish on the spot,
   so the enqueue appends the query's outcome row and no completion event
   exists.  When the run ends, the rows that finished by then are written
   to the collector's outcome table in finish order, ties in enqueue
   order.

After the trace's horizon a configurable *drain* window keeps period ticks
alive so backlogged queries can finish; whatever is still pending when the
drain ends is recorded as dropped, and what is queued, running or still
on its way to its node then is counted as ``in_flight``.  An infinite
drain runs until nothing is pending or backing off and every query has
finished (no drops, nothing in flight); a run that has not emptied
:data:`DRAIN_CAP_MS` after its horizon raises :class:`DrainCapExceeded`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..allocation.base import AllocationContext, Allocator
from ..catalog import Placement
from ..query.cost import CostModel, MachineSpec
from ..query.model import Query, QueryClass
from ..workload.trace import WorkloadEvent, trace_columns
from .engine import Simulator
from .faults import FaultInjector, FaultSpec
from .fleet import FleetArrays
from .metrics import OUTCOME_DTYPES, MetricsCollector
from .network import LatencyModel, Network
from .node import SimulatedNode

__all__ = [
    "DRAIN_CAP_MS",
    "DrainCapExceeded",
    "FederationConfig",
    "FederationSimulation",
    "generate_machine_specs",
    "build_federation",
    "run_single_mechanism",
]

#: The paper's period length ``T``.
DEFAULT_PERIOD_MS = 500.0

#: How long after its horizon a ``drain_ms=inf`` run may take to empty:
#: ten simulated hours, six times the 6,000 s that drained every paper
#: Fig. 6 cell.
DRAIN_CAP_MS = 36_000_000.0


class DrainCapExceeded(RuntimeError):
    """A ``drain_ms=inf`` run still had queries pending or backing off
    :data:`DRAIN_CAP_MS` after its horizon."""

    def __init__(self, pending: int):
        super().__init__(
            "%d queries still pending %.0f s after the horizon"
            % (pending, DRAIN_CAP_MS / 1000.0)
        )
        self.pending = pending


@dataclass(frozen=True)
class FederationConfig:
    """Run-level knobs of the federation simulator."""

    period_ms: float = DEFAULT_PERIOD_MS
    #: Extra simulated time after the last arrival for backlogs to drain;
    #: ``math.inf`` drains until every query has finished (see
    #: :data:`DRAIN_CAP_MS`).
    drain_ms: float = 60_000.0
    latency: LatencyModel = field(default_factory=LatencyModel)
    seed: int = 0
    #: Optional fault schedule (see :mod:`repro.sim.faults`).  ``None``
    #: or an inactive spec leaves every code path — and every RNG draw —
    #: exactly as without the fault layer.
    faults: Optional[FaultSpec] = None
    #: Route same-timestamp arrival groups through the allocator's
    #: :meth:`~repro.allocation.base.Allocator.assign_batch` (one market
    #: tick per simulated instant) instead of one event per query.
    #: Bit-identical either way by the batch contract; the flag exists so
    #: twin-fleet equivalence tests can force the scalar path.  Batching
    #: auto-disables under message faults or a zero base latency (see
    #: ``FederationSimulation._batch_enabled``).
    batch_ticks: bool = True

    def __post_init__(self) -> None:
        if self.period_ms <= 0:
            raise ValueError("period must be positive")
        # The negated test also refuses NaN, which passes any `<` test.
        if not self.drain_ms >= 0:
            raise ValueError("drain window must be non-negative")


class FederationSimulation:
    """One simulated federation bound to one allocation mechanism."""

    def __init__(
        self,
        nodes: Dict[int, SimulatedNode],
        classes: Sequence[QueryClass],
        candidates_by_class: Dict[int, Tuple[int, ...]],
        allocator: Allocator,
        simulator: Simulator,
        network: Network,
        config: FederationConfig,
        faults: Optional[FaultInjector] = None,
    ):
        self._nodes = nodes
        self._classes = classes
        self._allocator = allocator
        self._sim = simulator
        self._network = network
        self._config = config
        self._rng = random.Random(config.seed)
        self._metrics = MetricsCollector()
        self._pending: List[Query] = []
        #: One outcome row (:class:`~repro.sim.metrics.QueryOutcome`
        #: field order) per enqueued query, in enqueue order.
        self._executions: List[tuple] = []
        self._next_qid = 0
        self._faults = faults
        #: Queries waiting on a backoff-scheduled retry (fault runs only);
        #: whatever is still here when the run ends counts as dropped.
        self._backoff_pending: Dict[int, Query] = {}
        context = AllocationContext(
            simulator=simulator,
            network=network,
            nodes=nodes,
            classes=classes,
            candidates_by_class=candidates_by_class,
            period_ms=config.period_ms,
            rng=random.Random(config.seed + 1),
            faults=faults if faults is not None and faults.message_faults else None,
            fleet=FleetArrays.build(nodes),
        )
        allocator.bind(context)
        # Market-tick batching requirements beyond the config flag:
        # * strictly positive negotiation delays (base latency > 0), so
        #   no enqueue can land *between* two same-tick
        #   assigns — with zero base latency an assignment would enqueue
        #   synchronously mid-batch and the batch contract breaks;
        # * no message faults — backoff retries interleave their own
        #   scheduling and RNG draws per query, which batching would
        #   reorder.  Node-only faults (outages, churn) are fine: the
        #   allocators fall back to scalar exchanges per query on
        #   partial candidate sets.
        self._batch_enabled = (
            config.batch_ticks
            and config.latency.base_ms > 0
            and (faults is None or not faults.message_faults)
        )

    # -- accessors -------------------------------------------------------------

    @property
    def metrics(self) -> MetricsCollector:
        """The run's metrics collector."""
        return self._metrics

    @property
    def nodes(self) -> Dict[int, SimulatedNode]:
        """The federation's nodes by id."""
        return self._nodes

    @property
    def allocator(self) -> Allocator:
        """The bound allocation mechanism."""
        return self._allocator

    @property
    def simulator(self) -> Simulator:
        """The underlying event simulator."""
        return self._sim

    @property
    def network(self) -> Network:
        """The simulated network (message counts live here)."""
        return self._network

    @property
    def pending_queries(self) -> int:
        """Queries currently refused and awaiting resubmission."""
        return len(self._pending) + len(self._backoff_pending)

    @property
    def fault_injector(self) -> Optional[FaultInjector]:
        """The run's fault injector (None on fault-free runs)."""
        return self._faults

    # -- driving ------------------------------------------------------------------

    def run(self, trace: Sequence[WorkloadEvent]) -> MetricsCollector:
        """Execute a full workload trace and return the metrics."""
        times, classes, origins = trace_columns(trace)
        if not len(times):
            raise ValueError("cannot run an empty workload trace")
        horizon = float(times.max())
        drain_ms = self._config.drain_ms
        to_empty = math.isinf(drain_ms)
        end_of_run = horizon + (DRAIN_CAP_MS if to_empty else drain_ms)

        faults = self._faults
        if faults is not None and faults.spec.node_faults:
            # Scripted outages and churn windows go through the node's
            # existing fail/drain machinery before any event fires.
            faults.install_node_faults(self._nodes, horizon)
        if to_empty:

            def on_tick() -> bool:
                # Past the horizon with nothing left to retry, the ticks
                # end and the heap runs dry once the last commit lands.
                self._on_period_tick()
                return self._sim.now > horizon and not self.pending_queries

        else:
            on_tick = self._on_period_tick
        self._sim.every(
            self._config.period_ms,
            on_tick,
            start_ms=self._config.period_ms,
            until_ms=end_of_run,
        )
        # Arrivals go in as one event *stream* of slim (callback, args)
        # slots: only its next-due entry occupies a heap slot, so a
        # million-query trace costs O(1) heap residency instead of
        # O(queries), and — with batching enabled — runs of
        # same-timestamp arrivals collapse into one market-tick entry
        # each.  The sort is stable, so same-time arrivals keep trace
        # order; every builder emits a sorted trace already.
        if not (times[1:] >= times[:-1]).all():
            order = np.argsort(times, kind="stable")
            times, classes, origins = times[order], classes[order], origins[order]
        self._sim.schedule_stream(self._arrival_entries(times, classes, origins))
        self._sim.run(until_ms=end_of_run)
        if to_empty:
            if self.pending_queries:
                raise DrainCapExceeded(self.pending_queries)
            end_of_run = max(
                (row[7] for row in self._executions), default=horizon
            )
        self._record_outcomes(end_of_run, times)
        # Let the allocator close its last period before the run's
        # counters are read.
        self._allocator.on_run_end()
        batch_stats = getattr(self._allocator, "batch_dispatch_stats", None)
        if batch_stats is not None:
            self._metrics.add_counters(
                vector_exchanges=batch_stats.vector_exchanges,
                batch_syncs=batch_stats.syncs,
            )
        if faults is not None:
            self._metrics.add_counters(
                timeouts=faults.timeouts,
                lost_messages=faults.lost_messages,
                degraded_assignments=faults.degraded_assignments,
                fault_retries=faults.backoff_retries,
                crash_count=faults.crash_count,
                partition_ms=faults.partition_ms(),
            )
        return self._metrics

    def _arrival_entries(
        self, times: np.ndarray, classes: np.ndarray, origins: np.ndarray
    ) -> List[Tuple[float, object, tuple]]:
        """Stream entries for a sorted trace's columns, grouping
        same-tick arrivals.

        With batching enabled, a run of events sharing one timestamp
        becomes a single ``_on_arrival_batch`` entry (the group fires at
        the run's first reserved sequence number; nothing else can sort
        between the run's members, so the collapse is order-preserving).
        Singletons — and everything when batching is off — stay one
        ``_on_arrival`` entry per event.
        """
        on_arrival = self._on_arrival
        time_list = times.tolist()
        class_list, origin_list = classes.tolist(), origins.tolist()
        if not self._batch_enabled:
            return [
                (row[0], on_arrival, row)
                for row in zip(time_list, class_list, origin_list)
            ]
        entries: List[Tuple[float, object, tuple]] = []
        on_batch = self._on_arrival_batch
        starts = np.flatnonzero(times[1:] != times[:-1]) + 1
        bounds = [0, *starts.tolist(), len(time_list)]
        for lo, hi in zip(bounds, bounds[1:]):
            time_ms = time_list[lo]
            if hi - lo == 1:
                args = (time_ms, class_list[lo], origin_list[lo])
                entries.append((time_ms, on_arrival, args))
            else:
                args = (time_ms, class_list[lo:hi], origin_list[lo:hi])
                entries.append((time_ms, on_batch, args))
        return entries

    # -- event handlers ---------------------------------------------------------------

    def _on_arrival(self, time_ms: float, class_index: int, origin_node: int) -> None:
        query = Query(
            qid=self._next_qid,
            class_index=class_index,
            origin_node=origin_node,
            arrival_ms=time_ms,
        )
        self._next_qid += 1
        self._try_assign(query)

    def _on_arrival_batch(
        self, time_ms: float, classes: List[int], origins: List[int]
    ) -> None:
        """All arrivals of one simulated tick, as one market tick."""
        queries = []
        for class_index, origin_node in zip(classes, origins):
            queries.append(
                Query(
                    qid=self._next_qid,
                    class_index=class_index,
                    origin_node=origin_node,
                    arrival_ms=time_ms,
                )
            )
            self._next_qid += 1
        self._dispatch_batch(queries)

    def _on_period_tick(self) -> None:
        self._allocator.on_period_start()
        if not self._pending:
            return
        # Refused queries re-enter the new period's demand (Section 3.3).
        retry, self._pending = self._pending, []
        if self._batch_enabled and len(retry) >= 2:
            # The whole retry burst shares this tick; the batch contract
            # guarantees the up-front resubmission bump is unobservable
            # (a fault-free assign never reads another query's counter).
            for query in retry:
                query.resubmissions += 1
            self._dispatch_batch(retry)
            return
        for query in retry:
            query.resubmissions += 1
            self._try_assign(query)

    def _dispatch_batch(self, queries: List[Query]) -> None:
        """Allocate one same-tick batch through ``assign_batch``.

        Batching implies no message faults (see ``_batch_enabled``), so a
        refused row is the plain next-period retry and the whole refused
        column joins the pending pool at once, in batch order.
        """
        self._metrics.record_batch_ticks([len(queries)])
        decisions = self._allocator.assign_batch(queries)
        node_ids = decisions.node_ids
        delays = decisions.delays_ms
        refused = [
            query for query, node_id in zip(queries, node_ids) if node_id is None
        ]
        self._metrics.record_exchanges(decisions.messages, delays, len(refused))
        self._pending.extend(refused)
        for query, node_id, delay_ms in zip(queries, node_ids, delays):
            if node_id is not None:
                self._commit(query, node_id, delay_ms)

    def _try_assign(self, query: Query) -> None:
        decision = self._allocator.assign(query)
        self._metrics.record_exchange(
            decision.messages, decision.delay_ms, decision.node_id is not None
        )
        if decision.node_id is None:
            faults = self._faults
            if faults is not None and faults.message_faults:
                # Under message faults a refusal (or total silence) is
                # resubmitted through capped exponential backoff instead
                # of the plain next-period retry — the client cannot tell
                # a refusal from a lost reply, so it paces itself.
                delay = decision.delay_ms + faults.backoff_ms(
                    query.resubmissions
                )
                faults.note_backoff()
                self._backoff_pending[query.qid] = query
                self._sim.schedule(delay, self._retry, query)
                return
            self._pending.append(query)
            return
        self._commit(query, decision.node_id, decision.delay_ms)

    def _commit(self, query: Query, node_id: int, delay_ms: float) -> None:
        """Send an assigned query to its node after the negotiation delay."""
        node = self._nodes[node_id]
        query.assigned_ms = self._sim.now + delay_ms
        if delay_ms > 0:
            self._sim.schedule(delay_ms, self._enqueue, query, node)
        else:
            self._enqueue(query, node)

    def _retry(self, query: Query) -> None:
        """A backoff timer fired: resubmit the query (fault runs only)."""
        self._backoff_pending.pop(query.qid, None)
        query.resubmissions += 1
        self._try_assign(query)

    def _enqueue(self, query: Query, node: SimulatedNode) -> None:
        """Commit an assigned query to its node and note its outcome."""
        start_ms, finish_ms = node.enqueue(query)
        self._executions.append(
            (
                query.qid,
                query.class_index,
                query.origin_node,
                query.arrival_ms,
                query.assigned_ms,
                node.node_id,
                start_ms,
                finish_ms,
                query.resubmissions,
            )
        )

    def _record_outcomes(self, end_of_run: float, arrivals: np.ndarray) -> None:
        """Write the outcome table: every query that finished by
        ``end_of_run`` (inclusive).

        The stable sort by finish time keeps enqueue order among equal
        finishes, which is the ``(time, seq)`` order a completion event
        per query would have fired in; the collector's means are
        order-sensitive sums.  Queries still queued or running are in
        flight, and so are those assigned within their negotiation delay
        of the end, whose enqueue never fired; refused ones still waiting
        for a retry are dropped.  Each of those waited ``end_of_run -
        arrival``; ``arrivals`` is the sorted trace's times, the arrival
        of each qid.
        """
        executions = self._executions
        finished = [row for row in executions if row[7] <= end_of_run]
        finished.sort(key=itemgetter(7))
        waits = [
            end_of_run - row[3] for row in executions if row[7] > end_of_run
        ]
        unqueued = self._unqueued_qids()
        waits += (end_of_run - arrivals[unqueued]).tolist()
        for pool in (self._pending, self._backoff_pending.values()):
            waits += [end_of_run - query.arrival_ms for query in pool]
        self._metrics.record_outcomes(
            list(zip(*finished)) or [()] * len(OUTCOME_DTYPES),
            in_flight=len(executions) - len(finished) + len(unqueued),
            dropped=len(self._pending) + len(self._backoff_pending),
            unfinished_wait_ms=waits,
        )

    def _unqueued_qids(self) -> List[int]:
        """Qids assigned to a node whose enqueue had not fired when the
        run ended: every arrived qid in no outcome row and no pool."""
        pools = (self._pending, self._backoff_pending.values())
        if len(self._executions) + sum(map(len, pools)) == self._next_qid:
            return []
        seen = np.zeros(self._next_qid, dtype=bool)
        seen[[row[0] for row in self._executions]] = True
        for pool in pools:
            seen[[query.qid for query in pool]] = True
        return np.flatnonzero(~seen).tolist()


def generate_machine_specs(
    num_nodes: int,
    seed: int = 0,
    cpu_range_ghz: Tuple[float, float] = (1.0, 3.5),
    buffer_range_mb: Tuple[float, float] = (2.0, 10.0),
    io_range_mbps: Tuple[float, float] = (5.0, 80.0),
    nodes_without_hash_join: int = 5,
) -> List[MachineSpec]:
    """Heterogeneous machine specs per Table 3.

    Defaults: CPU 1–3.5 GHz, buffers 2–10 MB, I/O 5–80 MB/s, merge-scan on
    all nodes but hash join missing on 5 of them.
    """
    if num_nodes <= 0:
        raise ValueError("need at least one node")
    rng = random.Random(seed)
    no_hash = set(
        rng.sample(range(num_nodes), min(nodes_without_hash_join, num_nodes))
    )
    return [
        MachineSpec(
            cpu_ghz=rng.uniform(*cpu_range_ghz),
            buffer_mb=rng.uniform(*buffer_range_mb),
            io_mbps=rng.uniform(*io_range_mbps),
            supports_hash_join=i not in no_hash,
        )
        for i in range(num_nodes)
    ]


def build_federation(
    specs: Sequence[MachineSpec],
    placement: Placement,
    classes: Sequence[QueryClass],
    cost_model: CostModel,
    allocator: Allocator,
    config: Optional[FederationConfig] = None,
) -> FederationSimulation:
    """Assemble a ready-to-run federation.

    Node *i* gets machine spec ``specs[i]`` and the relations
    ``placement.relations_of(i)``; its per-class cost row is the cost
    model's estimate where it holds all relations of the class and ``inf``
    elsewhere.
    """
    config = config or FederationConfig()
    if len(specs) != placement.num_nodes:
        raise ValueError("one machine spec per placed node is required")
    simulator = Simulator()
    network = Network(simulator, latency=config.latency, seed=config.seed + 2)
    injector: Optional[FaultInjector] = None
    if config.faults is not None and config.faults.active:
        injector = FaultInjector(config.faults)
        if config.faults.message_faults:
            # Message-level faults hook the network; pure node-fault specs
            # (scripted outages, churn) leave the wire untouched so the
            # message paths stay byte-identical to a fault-free run.
            network.attach_faults(injector)

    candidates_by_class: Dict[int, Tuple[int, ...]] = {
        qc.index: tuple(sorted(qc.candidate_nodes(placement)))
        for qc in classes
    }
    nodes: Dict[int, SimulatedNode] = {}
    for node_id in placement.node_ids:
        spec = specs[node_id]
        costs = []
        for qc in classes:
            if node_id in candidates_by_class[qc.index]:
                costs.append(cost_model.execution_time_ms(qc, spec))
            else:
                costs.append(float("inf"))
        nodes[node_id] = SimulatedNode(
            node_id=node_id,
            spec=spec,
            relations=placement.relations_of(node_id),
            class_costs_ms=costs,
            simulator=simulator,
        )
    return FederationSimulation(
        nodes=nodes,
        classes=classes,
        candidates_by_class=candidates_by_class,
        allocator=allocator,
        simulator=simulator,
        network=network,
        config=config,
        faults=injector,
    )


def run_single_mechanism(
    specs: Sequence[MachineSpec],
    placement: Placement,
    classes: Sequence[QueryClass],
    cost_model: CostModel,
    trace: Sequence[WorkloadEvent],
    mechanism: str = "qa-nt",
    config: Optional[FederationConfig] = None,
) -> Tuple[MetricsCollector, int]:
    """Build, run and tear down one single-process federation.

    The one-call form of the build-allocator/build-federation/run
    sequence for the two mechanisms the sharded engine speaks,
    ``"qa-nt"`` (a default :class:`~repro.allocation.QantAllocator`) and
    ``"greedy"``; ``repro.sim.shards`` delegates its
    ``shards=1`` path here verbatim, which is what keeps that path
    byte-identical to ``build_federation().run()``.  Returns the metrics
    collector and the network's message count.
    """
    from ..allocation import GreedyAllocator, QantAllocator

    if mechanism == "qa-nt":
        allocator: Allocator = QantAllocator()
    elif mechanism == "greedy":
        allocator = GreedyAllocator()
    else:
        raise ValueError("unknown mechanism %r" % (mechanism,))
    federation = build_federation(
        specs, placement, classes, cost_model, allocator, config
    )
    metrics = federation.run(trace)
    return metrics, federation.network.messages_sent
