"""A real DBMS server node: SQLite behind a serial worker thread.

The paper's Section 5.2 deployment ran the pricing mechanism against five
Windows PCs with a commercial RDBMS.  The reproduction substitutes SQLite
(in-memory, one database per node) with a per-node *slowdown factor*
emulating the 1.3–3.06 GHz hardware spread: after executing a statement
the worker idles for ``(slowdown - 1) x elapsed``, so a node with
slowdown 3 behaves like a machine three times slower.

Each node owns:

* a private SQLite connection used only by its worker thread (queries
  execute serially, like the paper's nodes);
* an optimizer-cost probe built on ``EXPLAIN QUERY PLAN`` — deliberately
  crude, because the paper found raw optimizer estimates "usually
  incorrect";
* a :class:`repro.query.HistoryCalibratedEstimator` that fixes the crude
  estimates from past executions of queries with the same plan signature,
  reproducing the paper's remedy;
* the server half of the market (Section 3.3): :meth:`SqliteServerNode
  .handle` answers the protocol's messages, pricing with the paper
  listing, :meth:`repro.core.QantPricingAgent.quote`.
"""

from __future__ import annotations

import math
import queue
import random
import sqlite3
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..catalog import Relation
from ..core import CapacitySupplySet, QantParameters, QantPricingAgent
from ..core.qant import DEFAULT_ACTIVATION_THRESHOLD, backlog_allowance_ms
from ..protocol.messages import (
    AssignQuery,
    BidRequest,
    Message,
    PeriodTick,
    Quote,
    Refusal,
)
from ..query import (
    HistoryCalibratedEstimator,
    PerfectEstimator,
    QueryClass,
    create_table_sql,
    insert_rows_sql,
    plan_signature,
    render_query_sql,
)

__all__ = [
    "ExecutionResult",
    "SqliteServerNode",
]

#: The cheapest a class is ever priced for eq. 4, and the most capacity
#: eq. 4 can divide by it without overflowing to ``inf``: a
#: :class:`PeriodTick` off the wire may carry any period, ``Infinity``
#: included.
_MIN_COST_MS = 0.1
_MAX_CAPACITY_MS = sys.float_info.max * _MIN_COST_MS / 2.0


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of one statement executed on a node."""

    qid: int
    class_index: int
    rows: int
    submitted_s: float
    started_s: float
    finished_s: float


#: What :meth:`SqliteServerNode.submit` calls from the worker thread.
CompletionSink = Callable[[int, ExecutionResult], None]


class SqliteServerNode:
    """One autonomous SQLite-backed server with a serial executor."""

    def __init__(
        self,
        node_id: int,
        slowdown: float = 1.0,
        rows_per_mb: float = 2000.0,
    ):
        """``rows_per_mb`` scales catalog relation sizes down to a row
        count that executes in milliseconds rather than the paper's
        seconds — the substitution that keeps Fig. 7 runnable on one
        machine (documented in DESIGN.md)."""
        if slowdown < 1.0:
            raise ValueError("slowdown must be >= 1 (1 = fastest machine)")
        self.node_id = node_id
        self.slowdown = slowdown
        self._rows_per_mb = rows_per_mb
        self._conn = sqlite3.connect(":memory:", check_same_thread=False)
        self._conn_lock = threading.Lock()
        self._jobs: "queue.Queue[Optional[Tuple]]" = queue.Queue()
        self._worker = threading.Thread(
            target=self._run_worker, name="sqlite-node-%d" % node_id, daemon=True
        )
        self._worker.start()
        self._relations: Dict[int, Relation] = {}
        self._row_counts: Dict[int, int] = {}
        self.estimator = HistoryCalibratedEstimator(PerfectEstimator())
        # Optimizer cost per plan signature, until the schema changes.
        self._plan_costs: Dict[str, float] = {}
        self._closed = False
        # The market half, set per run by `open_market`.  The lock
        # serialises `handle` against the worker's completion credit.
        self._market_lock = threading.RLock()
        self._num_classes = 0
        self._held: Dict[int, QueryClass] = {}  # class index -> class
        self._on_complete: CompletionSink = lambda node_id, result: None
        #: The node's pricing agent; ``None`` is a Greedy node, which
        #: quotes every request.
        self.agent: Optional[QantPricingAgent] = None
        # Estimate charged per assigned, unfinished qid: the backlog is
        # their sum, so a completion credits exactly what was charged.
        self._charged: Dict[int, float] = {}

    # -- schema loading --------------------------------------------------------

    def load_relation(self, relation: Relation) -> None:
        """Create and populate one relation on this node."""
        rows = max(10, int(relation.size_mb * self._rows_per_mb))
        with self._conn_lock:
            cursor = self._conn.cursor()
            cursor.execute(create_table_sql(relation))
            cursor.execute(insert_rows_sql(relation, rows))
            cursor.execute(
                "CREATE INDEX idx_rel_%04d_key ON rel_%04d(key)"
                % (relation.rid, relation.rid)
            )
            self._conn.commit()
        self._relations[relation.rid] = relation
        self._row_counts[relation.rid] = rows
        self._plan_costs.clear()

    def create_view(self, name: str, rid: int, max_val: int) -> None:
        """Create a select-project view over a loaded relation.

        The paper's dataset included 80 select-project views over the 20
        base tables; views behave as additional relations for query
        routing.
        """
        if rid not in self._relations:
            raise KeyError("relation %d is not loaded on node %d" % (rid, self.node_id))
        with self._conn_lock:
            self._conn.execute(
                "CREATE VIEW %s AS SELECT key, val FROM rel_%04d WHERE val < %d"
                % (name, rid, max_val)
            )
            self._conn.commit()
        self._plan_costs.clear()

    def holds(self, rids: Sequence[int]) -> bool:
        """True iff every relation in ``rids`` is loaded here."""
        return all(rid in self._relations for rid in rids)

    @property
    def relation_ids(self) -> List[int]:
        """Relations loaded on this node."""
        return sorted(self._relations)

    # -- estimation -------------------------------------------------------------

    def optimizer_cost_ms(self, query_class: QueryClass) -> float:
        """A crude optimizer cost from ``EXPLAIN QUERY PLAN``.

        Scans cost their table's full row count, index searches a flat
        fraction; the absolute scale is wrong on purpose — the history
        calibration layer is what makes estimates usable (Section 5.2).
        Cached per plan signature: the worker holds the connection for a
        whole query, and a bid must not wait for it.
        """
        signature = plan_signature(query_class)
        cached = self._plan_costs.get(signature)
        if cached is not None:
            return cached
        sql = render_query_sql(query_class, constant=0)
        with self._conn_lock:
            plan_rows = self._conn.execute(
                "EXPLAIN QUERY PLAN " + sql
            ).fetchall()
        cost = 0.0
        for row in plan_rows:
            detail = str(row[-1])
            table_rows = self._rows_of_detail(detail)
            if detail.startswith("SCAN"):
                cost += table_rows
            elif detail.startswith("SEARCH"):
                cost += max(1.0, table_rows * 0.05)
        # Rows -> milliseconds under a nominal 1000 rows/ms machine.
        cost = max(0.1, cost / 1000.0) * self.slowdown
        self._plan_costs[signature] = cost
        return cost

    def _rows_of_detail(self, detail: str) -> float:
        for rid, rows in self._row_counts.items():
            if ("rel_%04d" % rid) in detail:
                return float(rows)
        return 100.0

    def estimate_ms(self, query_class: QueryClass) -> float:
        """History-calibrated execution-time estimate for one query."""
        signature = plan_signature(query_class)
        return self.estimator.estimate_ms(
            signature, self.optimizer_cost_ms(query_class)
        )

    # -- the market, server side (paper Section 3.3) ------------------------------

    def open_market(
        self,
        classes: Sequence[QueryClass],
        on_complete: CompletionSink,
        parameters: Optional[QantParameters] = None,
        period_ms: float = 0.0,
    ) -> None:
        """Start one run: an empty backlog and, given QA-NT ``parameters``,
        a fresh agent in its first period of ``period_ms``.

        ``classes[k]`` is the class the wire calls ``class_index == k``;
        ``on_complete`` hears of every assigned query's execution.
        """
        with self._market_lock:
            self._num_classes = len(classes)
            self._held = {
                k: qc
                for k, qc in enumerate(classes)
                if self.holds(qc.relation_ids)
            }
            self._on_complete = on_complete
            self._charged.clear()
            self.agent = None
            if parameters is not None:
                self.agent = QantPricingAgent(
                    self.supply_set(period_ms), parameters
                )
                self.agent.begin_period()

    @property
    def backlog_ms(self) -> float:
        """Estimated work assigned here and not yet finished."""
        with self._market_lock:
            return sum(self._charged.values())

    def supply_set(self, period_ms: float) -> CapacitySupplySet:
        """Eq. 4's constraint for one period: the estimated cost of each
        class held here (others cost ``inf``) against the capacity the
        backlog leaves of ``period_ms`` plus the allowance."""
        costs = [math.inf] * self._num_classes
        for k, query_class in self._held.items():
            costs[k] = max(_MIN_COST_MS, self.estimate_ms(query_class))
        allowance = backlog_allowance_ms(period_ms, costs)
        free = max(0.0, allowance - self.backlog_ms)
        return CapacitySupplySet(costs, min(free, _MAX_CAPACITY_MS))

    def handle(self, message: Message) -> Optional[Message]:
        """Answer one protocol message; ``None`` is a bare acknowledgement.

        * :class:`BidRequest` — the paper listing decides: the agent's
          ``quote(k, DEFAULT_ACTIVATION_THRESHOLD)`` offers while supply
          lasts,
          else raises the class price and still offers below the
          threshold; a node without an agent always offers.  An offer is
          ``Quote(backlog + estimate)``, anything else a ``Refusal``.
        * :class:`AssignQuery` — the offer was accepted: pay a unit of
          supply if one is left, charge the estimate, queue the query.
          A class this node does not hold (or no class at all) is
          answered with a ``Refusal``: nothing is charged, queued or paid.
        * :class:`PeriodTick` — steps 12–14, then eq. 4 over the capacity
          the backlog leaves free.
        """
        with self._market_lock:
            if isinstance(message, BidRequest):
                return self._on_bid(message)
            if isinstance(message, AssignQuery):
                return self._on_assign(message)
            if isinstance(message, PeriodTick) and self.agent is not None:
                self.agent.end_period()
                self.agent.rebind_supply_set(self.supply_set(message.period_ms))
                self.agent.begin_period()
            return None

    def _on_bid(self, request: BidRequest) -> Message:
        index = request.class_index
        query_class = self._held.get(index)
        if query_class is None or not (
            self.agent is None
            or self.agent.quote(index, DEFAULT_ACTIVATION_THRESHOLD)
        ):
            return Refusal(request.qid, self.node_id, index)
        estimate_ms = self.backlog_ms + self.estimate_ms(query_class)
        return Quote(request.qid, self.node_id, index, estimate_ms)

    def _on_assign(self, assign: AssignQuery) -> Optional[Message]:
        index = assign.class_index
        query_class = self._held.get(index)
        if query_class is None:
            return Refusal(assign.qid, self.node_id, index)
        if self.agent is not None and self.agent.supply_left(index) >= 1:
            self.agent.accept(index)
        self._charged[assign.qid] = self.estimate_ms(query_class)
        # The wire carries no selection constant; draw the instance's
        # from its qid, so a query is the same SQL wherever it lands.
        constant = random.Random(assign.qid).randrange(1000)
        self.submit(assign.qid, query_class, constant, self._on_executed)
        return None

    def _on_executed(self, node_id: int, result: ExecutionResult) -> None:
        with self._market_lock:
            self._charged.pop(result.qid, None)
            on_complete = self._on_complete
        on_complete(node_id, result)

    # -- execution ----------------------------------------------------------------

    def submit(
        self,
        qid: int,
        query_class: QueryClass,
        constant: int,
        on_complete: CompletionSink,
    ) -> None:
        """Queue one query for serial execution; ``on_complete`` receives
        the :class:`ExecutionResult` from the worker thread."""
        if self._closed:
            raise RuntimeError("node %d is closed" % self.node_id)
        self._jobs.put((qid, query_class, constant, time.monotonic(), on_complete))

    def _run_worker(self) -> None:
        while True:
            job = self._jobs.get()
            if job is None:
                return
            qid, query_class, constant, submitted_s, on_complete = job
            started_s = time.monotonic()
            sql = render_query_sql(query_class, constant=constant)
            with self._conn_lock:
                rows = len(self._conn.execute(sql).fetchall())
            elapsed = time.monotonic() - started_s
            if self.slowdown > 1.0:
                time.sleep(elapsed * (self.slowdown - 1.0))
            finished_s = time.monotonic()
            result = ExecutionResult(
                qid=qid,
                class_index=query_class.index,
                rows=rows,
                submitted_s=submitted_s,
                started_s=started_s,
                finished_s=finished_s,
            )
            self.estimator.observe(
                plan_signature(query_class),
                self.optimizer_cost_ms(query_class),
                (finished_s - started_s) * 1000.0,
            )
            on_complete(self.node_id, result)

    # -- lifecycle -------------------------------------------------------------------

    def close(self, timeout_s: float = 10.0) -> None:
        """Drain the queue, stop the worker, close the connection."""
        if self._closed:
            return
        self._closed = True
        self._jobs.put(None)
        self._worker.join(timeout=timeout_s)
        with self._conn_lock:
            self._conn.close()

    def __enter__(self) -> "SqliteServerNode":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
