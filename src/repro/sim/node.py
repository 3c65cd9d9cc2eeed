"""Simulated autonomous RDBMS node.

Each node is a black box with its own hardware (a
:class:`repro.query.MachineSpec`), its own locally-held relations, and a
serial FIFO query executor — the paper's introduction explicitly assumes
nodes evaluate one query at a time.  The FIFO is one ``busy_until``
watermark: enqueueing fixes the query's start and finish on the spot, so
a query's execution needs no event at all.

The node also exposes what the allocation mechanisms need:

* ``estimated_completion_ms`` for Greedy (queue + execution time);
* ``current_load_ms`` for the load balancers, ``queued_queries`` for
  two random probes;
* ``class_costs_ms``, the cost row QA-NT's period engine prices the
  node's supply with (one row of the fleet's cost matrix).
"""

from __future__ import annotations

import heapq
import math
from typing import FrozenSet, List, Optional, Sequence, Tuple

from ..query.cost import MachineSpec
from ..query.model import Query
from .engine import Simulator

__all__ = [
    "SimulatedNode",
    "OUTAGE_EPOCH",
]

#: Process-wide count of :meth:`SimulatedNode.schedule_outage` calls.
#: Availability caches (see ``AllocationContext.available_candidates``) key
#: on it: while it is unchanged and no node of a federation has outages,
#: the per-class candidate tuple can be reused verbatim instead of being
#: re-filtered for every arriving query.  A one-element list so readers
#: can hold the cell itself rather than re-importing the module.
OUTAGE_EPOCH: List[int] = [0]


class SimulatedNode:
    """One autonomous DBMS in the simulated federation."""

    def __init__(
        self,
        node_id: int,
        spec: MachineSpec,
        relations: FrozenSet[int],
        class_costs_ms: Sequence[float],
        simulator: Simulator,
    ):
        """``class_costs_ms[k]`` is this node's execution time for class
        *k* (``inf`` when the node lacks the class's relations)."""
        self.node_id = node_id
        self.spec = spec
        self.relations = relations
        self._costs = tuple(float(c) for c in class_costs_ms)
        self._sim = simulator
        #: When the FIFO drains: the finish time of the last queued query.
        self._busy_until = 0.0
        #: Min-heap of finish times of not-yet-completed executions.
        self._open_finishes: List[float] = []
        #: Outage intervals (start_ms, end_ms) during which the node
        #: accepts no new work; in-flight queries drain normally.
        self._outages: List[Tuple[float, float]] = []
        #: Mirror of ``_busy_until`` inside a federation-wide numpy
        #: array (see :class:`repro.sim.fleet.FleetArrays`); ``None`` until
        #: :meth:`attach_fleet` wires it up.
        self._fleet_slot_free = None
        self._fleet_row = -1

    # -- capabilities -----------------------------------------------------------

    @property
    def num_classes(self) -> int:
        """Number of query classes the cost row covers."""
        return len(self._costs)

    @property
    def class_costs_ms(self) -> Sequence[float]:
        """Per-class execution times on this node (``inf`` = ineligible)."""
        return self._costs

    def can_evaluate(self, class_index: int) -> bool:
        """True iff the node holds the data for class ``class_index``."""
        return not math.isinf(self._costs[class_index])

    def execution_time_ms(self, class_index: int) -> float:
        """Execution time of one class-``class_index`` query on this node."""
        cost = self._costs[class_index]
        if math.isinf(cost):
            raise ValueError(
                "node %d cannot evaluate class %d" % (self.node_id, class_index)
            )
        return cost

    def schedule_outage(self, start_ms: float, end_ms: float) -> None:
        """Mark the node unavailable during ``[start_ms, end_ms)``.

        Outages model the paper's motivating overload scenario ("multiple
        node failures", Section 1): the node stops accepting new queries
        but drains already-committed work.  Allocators must consult
        :meth:`is_available` before assigning.
        """
        if end_ms <= start_ms:
            raise ValueError("an outage must end after it starts")
        if start_ms < 0:
            raise ValueError("outage start must be non-negative")
        self._outages.append((start_ms, end_ms))
        OUTAGE_EPOCH[0] += 1

    @property
    def has_outages(self) -> bool:
        """True iff any outage was ever scheduled on this node."""
        return bool(self._outages)

    def is_available(self, now_ms: Optional[float] = None) -> bool:
        """True iff the node accepts new work at ``now_ms`` (default: now)."""
        if not self._outages:
            # Fast path: most nodes never schedule an outage, and this is
            # probed for every candidate of every arriving query.
            return True
        now = self._sim.now if now_ms is None else now_ms
        return not any(start <= now < end for start, end in self._outages)

    def attach_fleet(self, slot_free, row: int) -> None:
        """Mirror this node's watermark into a fleet array.

        ``slot_free[row]`` is kept equal to ``_busy_until`` from here on
        (:meth:`enqueue` is the only mutator), letting allocators compute
        completion estimates for whole candidate sets with one vectorised
        expression instead of per-node method calls.
        """
        self._fleet_slot_free = slot_free
        self._fleet_row = row
        slot_free[row] = self._busy_until

    # -- load introspection (used by allocators) ---------------------------------

    def queued_queries(self) -> int:
        """Number of queries enqueued but not yet finished.

        This is what a lightweight load probe returns (the two-random-
        probes mechanism polls it): a count, blind to how expensive the
        queued work is on this machine.
        """
        now = self._sim.now
        while self._open_finishes and self._open_finishes[0] <= now:
            heapq.heappop(self._open_finishes)
        return len(self._open_finishes)

    def current_load_ms(self) -> float:
        """Outstanding work: how far ``busy_until`` lies past *now*."""
        remaining = self._busy_until - self._sim.now
        return remaining if remaining > 0.0 else 0.0

    def estimated_completion_ms(self, class_index: int) -> float:
        """When a class-``class_index`` query enqueued now would finish."""
        earliest = self._busy_until
        now = self._sim.now
        start = now if now >= earliest else earliest
        return start + self.execution_time_ms(class_index)

    # -- execution ----------------------------------------------------------------

    def enqueue(self, query: Query) -> Tuple[float, float]:
        """Commit ``query`` to this node's FIFO.

        Returns the query's ``(start_ms, finish_ms)``, fully determined
        here: the node runs one query at a time and outages stop only new
        work, so nothing later can move them.
        """
        exec_ms = self.execution_time_ms(query.class_index)
        start = max(self._sim.now, self._busy_until)
        finish = start + exec_ms
        self._busy_until = finish
        fleet_sf = self._fleet_slot_free
        if fleet_sf is not None:
            fleet_sf[self._fleet_row] = finish
        heapq.heappush(self._open_finishes, finish)
        return start, finish
