"""A small real federation of SQLite nodes with a client coordinator.

This is the reproduction of the paper's Section 5.2 deployment: five
heterogeneous machines running a commercial RDBMS, a dataset of 20 tables
(2–4 copies each) plus 80 select-project views, and a client that
allocates 300 star-query instances with either Greedy or QA-NT.

Substitutions (documented in DESIGN.md): SQLite in-memory databases in
worker threads replace the Windows PCs; per-node slowdown factors emulate
the hardware spread; table sizes and inter-arrival times are scaled down
~10x so the experiment runs in seconds on one machine.  The measured
quantities are the paper's: *time to assign* a query to a node (both
mechanisms wait for estimate replies from every node — the dominant cost
the paper observed) and *total evaluation time* (assign + queue + execute).

The client is :class:`DbmsFederation` itself: :meth:`DbmsFederation.send`
carries each protocol message through the codec to the nodes' server
half, :meth:`~repro.dbms.node.SqliteServerNode.handle`, and
:meth:`DbmsFederation.negotiate` is the paper's bid round on top of it.
"""

from __future__ import annotations

import queue
import random
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..catalog import Relation
from ..core import QantParameters
from ..protocol.messages import (
    AssignQuery,
    BidRequest,
    Message,
    PeriodTick,
    Quote,
    decode,
    encode,
)
from ..query import QueryClass
from .node import ExecutionResult, SqliteServerNode

__all__ = [
    "DbmsQueryOutcome",
    "DbmsRunResult",
    "DbmsFederation",
    "FederationTimeout",
]


class FederationTimeout(TimeoutError):
    """The nodes did not finish their queued work within the deadline;
    what they still hold is lost to the caller, so close the federation."""


@dataclass(frozen=True)
class DbmsQueryOutcome:
    """Life cycle of one query through the real federation (seconds)."""

    qid: int
    class_index: int
    node_id: int
    arrival_s: float
    assigned_s: float
    finished_s: float
    resubmissions: int = 0

    @property
    def assign_ms(self) -> float:
        """Time to pick a node (the paper's Fig. 7 'assign' bar)."""
        return (self.assigned_s - self.arrival_s) * 1000.0

    @property
    def total_ms(self) -> float:
        """Assign + queue + execution (the Fig. 7 'total' bar)."""
        return (self.finished_s - self.arrival_s) * 1000.0


@dataclass
class DbmsRunResult:
    """All outcomes of one mechanism run plus summary statistics."""

    mechanism: str
    outcomes: List[DbmsQueryOutcome] = field(default_factory=list)
    unserved: int = 0

    @property
    def mean_assign_ms(self) -> float:
        """Average time to assign a query to a node."""
        if not self.outcomes:
            return float("nan")
        return sum(o.assign_ms for o in self.outcomes) / len(self.outcomes)

    @property
    def mean_total_ms(self) -> float:
        """Average total evaluation time."""
        if not self.outcomes:
            return float("nan")
        return sum(o.total_ms for o in self.outcomes) / len(self.outcomes)


class DbmsFederation:
    """Five (by default) SQLite server nodes plus the client coordinator."""

    def __init__(
        self,
        nodes: Sequence[SqliteServerNode],
        classes: Sequence[QueryClass],
        probe_latency_ms: float = 2.0,
    ):
        """``probe_latency_ms`` is the base cost of asking one node for an
        estimate; it is scaled by the node's slowdown, modelling the
        paper's observation that the slowest PC took seconds to answer
        EXPLAIN PLAN."""
        if not nodes:
            raise ValueError("the federation needs at least one node")
        self._nodes = {node.node_id: node for node in nodes}
        self._classes = list(classes)
        self._probe_latency_ms = probe_latency_ms
        self._candidates: Dict[int, Tuple[int, ...]] = {}
        for qc in self._classes:
            holders = tuple(
                sorted(
                    nid
                    for nid, node in self._nodes.items()
                    if node.holds(qc.relation_ids)
                )
            )
            self._candidates[qc.index] = holders

    # -- construction --------------------------------------------------------------

    @classmethod
    def build(
        cls,
        num_nodes: int = 5,
        num_tables: int = 20,
        num_views: int = 80,
        num_classes: int = 16,
        copies: Tuple[int, int] = (2, 4),
        table_size_mb: Tuple[float, float] = (0.5, 2.0),
        rows_per_mb: float = 2000.0,
        max_slowdown: float = 3.0,
        probe_latency_ms: float = 2.0,
        seed: int = 0,
    ) -> Tuple["DbmsFederation", List[QueryClass]]:
        """Create nodes, load the mirrored dataset, derive query classes.

        Defaults mirror the paper's setup scaled down: 5 nodes with a 1–3x
        speed spread (the paper's 1.3–3.06 GHz PCs), 20 tables with 2–4
        copies, 80 views, and star-join query classes over co-located
        tables.
        """
        rng = random.Random(seed)
        slowdowns = [1.0] + [
            rng.uniform(1.0, max_slowdown) for __ in range(num_nodes - 1)
        ]
        nodes = [
            SqliteServerNode(node_id=i, slowdown=slowdowns[i], rows_per_mb=rows_per_mb)
            for i in range(num_nodes)
        ]

        relations = [
            Relation(
                rid=rid,
                name="rel_%04d" % rid,
                size_mb=rng.uniform(*table_size_mb),
                num_attributes=10,
            )
            for rid in range(num_tables)
        ]
        holders_of: Dict[int, List[int]] = {}
        for relation in relations:
            count = rng.randint(*copies)
            chosen = rng.sample(range(num_nodes), min(count, num_nodes))
            holders_of[relation.rid] = chosen
            for node_id in chosen:
                nodes[node_id].load_relation(relation)

        for view_index in range(num_views):
            rid = rng.randrange(num_tables)
            max_val = rng.randrange(100, 900)
            for node_id in holders_of[rid]:
                nodes[node_id].create_view(
                    "view_%03d" % view_index, rid, max_val
                )

        classes: List[QueryClass] = []
        attempts = 0
        while len(classes) < num_classes and attempts < num_classes * 50:
            attempts += 1
            home = rng.randrange(num_nodes)
            local = nodes[home].relation_ids
            if len(local) < 2:
                continue
            width = rng.randint(2, min(4, len(local)))
            rids = tuple(sorted(rng.sample(local, width)))
            if any(set(c.relation_ids) == set(rids) for c in classes):
                continue
            classes.append(
                QueryClass(
                    index=len(classes),
                    relation_ids=rids,
                    selectivity=rng.uniform(0.1, 0.6),
                    requires_sort=True,
                )
            )
        federation = cls(nodes, classes, probe_latency_ms=probe_latency_ms)
        return federation, classes

    # -- accessors ------------------------------------------------------------------

    @property
    def nodes(self) -> Dict[int, SqliteServerNode]:
        """The server nodes by id."""
        return self._nodes

    @property
    def classes(self) -> List[QueryClass]:
        """The workload's query classes."""
        return self._classes

    def candidates(self, class_index: int) -> Tuple[int, ...]:
        """Node ids able to evaluate ``class_index`` locally."""
        return self._candidates.get(class_index, ())

    def warm_up(self) -> None:
        """Seed every node's history estimator with one run per class.

        The paper's implementation "used past execution information
        concerning queries with the same plan"; warm-up provides that
        history so the first measured queries are not estimated blind.
        """
        finished: "queue.Queue[int]" = queue.Queue()
        jobs = [
            (node_id, qc)
            for qc in self._classes
            for node_id in self.candidates(qc.index)
        ]
        for node_id, qc in jobs:
            self._nodes[node_id].submit(
                -1, qc, 0, lambda nid, __: finished.put(nid)
            )
        deadline_s = time.monotonic() + self.DEADLINE_S
        for done in range(len(jobs)):
            try:
                finished.get(timeout=max(0.0, deadline_s - time.monotonic()))
            except queue.Empty:
                raise FederationTimeout(
                    "warm_up: %d of %d executions finished in %.0f s"
                    % (done, len(jobs), self.DEADLINE_S)
                ) from None

    # -- the client ----------------------------------------------------------------

    #: Node id the client signs its messages with (it is not a node).
    CLIENT = -1
    #: How long :meth:`warm_up` and the drain of :meth:`run_workload` wait
    #: for the nodes before raising :class:`FederationTimeout`.
    DEADLINE_S = 120.0

    def send(self, message: Message, peers: Sequence[int]) -> List[Message]:
        """Deliver ``message`` to every peer in turn; return the replies.

        The caller's thread carries the message to each addressed node
        and the answer back, and every leg crosses the codec: the message
        is encoded once and decoded per peer, each reply encoded on the
        node's side and decoded on the client's, so the conversation is
        what a socket would carry.  A bid first waits for the slowest
        peer's probe: both mechanisms wait for estimate replies from all
        candidates.  Nodes serialise their own message handling, so the
        client and the period thread may both send.
        """
        nodes = [self._nodes[peer] for peer in peers]
        payload = encode(message)
        if nodes and isinstance(message, BidRequest):
            slowest = max(node.slowdown for node in nodes)
            time.sleep(self._probe_latency_ms * slowest / 1000.0)
        replies: List[Message] = []
        for node in nodes:
            reply = node.handle(decode(payload))
            if reply is not None:
                replies.append(decode(encode(reply)))
        return replies

    def negotiate(
        self, request: BidRequest, peers: Sequence[int]
    ) -> Optional[int]:
        """One bid round (Section 3.3): the winning node, or ``None``.

        Fans ``request`` out, takes the paper's winner — the earliest
        estimated completion, ties to the lowest node id — and sends it
        the :class:`~repro.protocol.messages.AssignQuery`.  ``None``
        means every peer refused; when to resubmit is the caller's
        business.
        """
        quotes = [
            reply
            for reply in self.send(request, peers)
            if isinstance(reply, Quote)
        ]
        if not quotes:
            return None
        winner = min(
            quotes, key=lambda q: (q.estimated_completion_ms, q.node_id)
        ).node_id
        self.send(
            AssignQuery(request.qid, winner, request.class_index), (winner,)
        )
        return winner

    def run_workload(
        self,
        mechanism: str,
        num_queries: int = 300,
        mean_interarrival_ms: float = 30.0,
        period_ms: float = 250.0,
        qant_parameters: Optional[QantParameters] = None,
        seed: int = 0,
    ) -> DbmsRunResult:
        """Run a uniform-inter-arrival workload under one mechanism.

        ``mechanism`` is ``"greedy"`` or ``"qa-nt"``.  Inter-arrival times
        are uniform in ``[0, 2 * mean]`` (the paper's distribution), paced
        in real time.  Either way the client runs the paper's
        conversation: one :meth:`negotiate` per arrival, and a query no
        node offered to take re-enters on the next period.  The
        mechanisms differ only in the nodes: under QA-NT each carries a
        pricing agent, under Greedy none does and every node quotes.
        """
        if mechanism not in ("greedy", "qa-nt"):
            raise ValueError("unknown mechanism %r" % mechanism)
        rng = random.Random(seed)
        result = DbmsRunResult(mechanism=mechanism)
        # What the other threads report to this one: a node's worker an
        # execution, the period thread ``None`` after each tick it sent.
        events: "queue.Queue[Optional[Tuple[int, ExecutionResult]]]" = (
            queue.Queue()
        )
        parameters = None
        if mechanism == "qa-nt":
            parameters = qant_parameters or QantParameters()

        def report(node_id: int, execution: ExecutionResult) -> None:
            events.put((node_id, execution))

        for node in self._nodes.values():
            node.open_market(self._classes, report, parameters, period_ms)
        #: Assigned, not finished: qid -> (arrival, resubmissions).
        inflight: Dict[int, Tuple[float, int]] = {}
        #: Offered by no node: resubmitted on the next period.
        waiting: List[Tuple[BidRequest, float]] = []

        def negotiate(request: BidRequest, arrival_s: float) -> None:
            peers = self.candidates(request.class_index)
            if not peers:
                result.unserved += 1
            elif self.negotiate(request, peers) is not None:
                inflight[request.qid] = (arrival_s, request.attempt)
            else:
                waiting.append(
                    (replace(request, attempt=request.attempt + 1), arrival_s)
                )

        def handle_event(before_s: float) -> bool:
            """Handle one reported event; False if none came ``before_s``."""
            try:
                event = events.get(
                    timeout=max(0.0, before_s - time.monotonic())
                )
            except queue.Empty:
                return False
            if event is None:
                retry, waiting[:] = list(waiting), []
                for request, arrival_s in retry:
                    negotiate(request, arrival_s)
            else:
                node_id, execution = event
                arrival_s, resubmissions = inflight.pop(execution.qid)
                result.outcomes.append(
                    DbmsQueryOutcome(
                        qid=execution.qid,
                        class_index=execution.class_index,
                        node_id=node_id,
                        arrival_s=arrival_s,
                        assigned_s=execution.submitted_s,
                        finished_s=execution.finished_s,
                        resubmissions=resubmissions,
                    )
                )
            return True

        stop = threading.Event()

        def send_period_ticks() -> None:
            period_index = 0
            while not stop.wait(timeout=period_ms / 1000.0):
                period_index += 1
                self.send(
                    PeriodTick(period_index, period_ms), tuple(self._nodes)
                )
                events.put(None)

        ticker = threading.Thread(target=send_period_ticks, daemon=True)
        ticker.start()
        try:
            for qid in range(num_queries):
                next_arrival_s = (
                    time.monotonic()
                    + rng.uniform(0.0, 2.0 * mean_interarrival_ms) / 1000.0
                )
                while handle_event(next_arrival_s):
                    pass
                qc = rng.choice(self._classes)
                negotiate(
                    BidRequest(qid, qc.index, self.CLIENT), time.monotonic()
                )
            deadline_s = time.monotonic() + self.DEADLINE_S
            while len(result.outcomes) + result.unserved < num_queries:
                if not handle_event(deadline_s):
                    raise FederationTimeout(
                        "run_workload: %d queries assigned and unfinished, "
                        "%d unassigned after a %.0f s drain"
                        % (len(inflight), len(waiting), self.DEADLINE_S)
                    )
        finally:
            stop.set()
            ticker.join(timeout=self.DEADLINE_S)
        return result

    # -- lifecycle --------------------------------------------------------------------------

    def close(self) -> None:
        """Shut down every node's worker thread and connection."""
        for node in self._nodes.values():
            node.close()

    def __enter__(self) -> "DbmsFederation":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
