"""Allocator interface shared by QA-NT and all baseline mechanisms.

An allocator decides, for each arriving query, which server node will
evaluate it.  The federation simulator hands the allocator an
:class:`AllocationContext` (nodes, candidate sets, network, clock) at bind
time and then drives two hooks:

* :meth:`Allocator.on_period_start` — fired every ``period_ms`` (QA-NT
  recomputes supply vectors here; most baselines ignore it);
* :meth:`Allocator.assign` — the allocation decision for one query; a
  ``node_id`` of ``None`` means every server refused and the client must
  resubmit next period (paper Section 3.3).

Each decision also carries the negotiation *cost*: how many network
messages were exchanged and how long the client waited before the query
could be enqueued.  This is how the paper's observation that QA-NT "requires
more network messages" and that both real implementations "waited for a
reply from all nodes" becomes measurable.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..protocol.transport import FanoutResult
from ..query.model import Query, QueryClass

if TYPE_CHECKING:  # imported lazily to avoid a package-level cycle
    from ..sim.engine import Simulator
    from ..sim.faults import FaultInjector
    from ..sim.fleet import FleetArrays
    from ..sim.network import Network
    from ..sim.node import SimulatedNode

__all__ = [
    "AllocationContext",
    "AssignmentDecision",
    "BatchDecisions",
    "Allocator",
]


@dataclass
class AllocationContext:
    """Everything an allocator may consult when deciding."""

    simulator: "Simulator"
    network: "Network"
    nodes: Dict[int, "SimulatedNode"]
    classes: Sequence[QueryClass]
    #: ``candidates_by_class[k]`` lists the ids of nodes able to evaluate
    #: class *k* (they hold all its relations), in ascending id order.
    candidates_by_class: Dict[int, Tuple[int, ...]]
    period_ms: float
    rng: random.Random
    #: Shared :class:`repro.sim.fleet.FleetArrays` mirror of the nodes'
    #: FIFO watermarks, for vectorised completion estimates and free
    #: capacities.
    fleet: "FleetArrays"
    #: Fault injector when *message-level* faults are active; ``None``
    #: otherwise, in which case every allocator follows exactly its
    #: fault-free code path (and RNG draw sequence).
    faults: Optional["FaultInjector"] = None

    def __post_init__(self) -> None:
        # Availability fast path: while no node of this federation has an
        # outage scheduled, per-query filtering is a no-op and the static
        # candidate tuple can be returned as-is.  The process-wide
        # OUTAGE_EPOCH cell (see repro.sim.node) tells us when to recheck;
        # it is resolved lazily because importing repro.sim at module
        # import time would close a package cycle.
        self._outage_epoch_cell: Optional[list] = None
        self._outage_checked_epoch = -1
        self._outage_free = False

    def candidates(self, class_index: int) -> Tuple[int, ...]:
        """Candidate server ids for ``class_index`` (may be empty)."""
        return self.candidates_by_class.get(class_index, ())

    def available_candidates(self, class_index: int) -> Tuple[int, ...]:
        """Candidates currently accepting work (outages filtered out).

        Every mechanism routes through this so node failures (Section 1's
        motivating scenario) affect all of them identically: a failed node
        is simply unreachable and the query negotiates with the rest.

        This is called once per allocation attempt (paper scale: hundreds
        of thousands of times), so the no-outage common case skips the
        per-node availability scan entirely and returns the registry
        tuple; the scan only runs while some node actually has outages.
        """
        candidates = self.candidates_by_class.get(class_index, ())
        cell = self._outage_epoch_cell
        if cell is None:
            from ..sim.node import OUTAGE_EPOCH

            cell = self._outage_epoch_cell = OUTAGE_EPOCH
        outage_epoch = cell[0]
        if outage_epoch != self._outage_checked_epoch:
            self._outage_checked_epoch = outage_epoch
            self._outage_free = not any(
                node.has_outages for node in self.nodes.values()
            )
        if self._outage_free:
            return candidates
        nodes = self.nodes
        return tuple(
            [nid for nid in candidates if nodes[nid].is_available()]
        )


@dataclass(frozen=True)
class AssignmentDecision:
    """Outcome of one allocation attempt."""

    #: Chosen server node, or ``None`` when every candidate refused (the
    #: query re-enters the next period's demand).
    node_id: Optional[int]
    #: Negotiation latency the client experienced before enqueueing.
    delay_ms: float = 0.0
    #: Network messages spent on this decision.
    messages: int = 0


@dataclass(frozen=True)
class BatchDecisions:
    """Outcome of one :meth:`Allocator.assign_batch` call, as columns.

    Row *i* is the :class:`AssignmentDecision` of the batch's *i*-th
    query; a saturated retry burst is thousands of refused rows, so the
    federation consumes whole columns instead of one object per query.
    """

    node_ids: Sequence[Optional[int]]
    delays_ms: Sequence[float]
    messages: Sequence[int]


class Allocator(abc.ABC):
    """Base class of all allocation mechanisms."""

    #: Short mechanism name used in reports (e.g. "qa-nt", "greedy").
    name: str = "abstract"
    #: Whether the mechanism respects server administrative autonomy
    #: (Table 2 column): True when servers decide what they accept.
    respects_autonomy: bool = False
    #: Whether the mechanism needs a central coordinator (Table 2).
    distributed: bool = True

    def __init__(self) -> None:
        self._context: Optional[AllocationContext] = None

    @property
    def context(self) -> AllocationContext:
        """The bound context (raises until :meth:`bind` is called)."""
        if self._context is None:
            raise RuntimeError("allocator %r is not bound yet" % self.name)
        return self._context

    def bind(self, context: AllocationContext) -> None:
        """Attach the allocator to a federation.  Idempotent re-binding is
        rejected to catch accidental reuse across simulations."""
        if self._context is not None:
            raise RuntimeError(
                "allocator %r is already bound; create a fresh instance "
                "per simulation" % self.name
            )
        self._context = context
        self._after_bind()

    def _after_bind(self) -> None:
        """Hook for subclasses needing per-federation setup."""

    def on_period_start(self) -> None:
        """Called at every period boundary; default does nothing."""

    @abc.abstractmethod
    def assign(self, query: Query) -> AssignmentDecision:
        """Decide which node evaluates ``query`` (or refuse)."""

    def assign_batch(self, queries: Sequence[Query]) -> BatchDecisions:
        """Decide for a batch of queries sharing one simulated tick.

        The contract is strict sequential equivalence: the returned
        columns (and every observable side effect — prices, supply,
        RNG state, message counts) must be bit-identical to calling
        :meth:`assign` once per query in order.  The federation only
        routes through here when the arrivals genuinely share a
        timestamp, negotiation delays are strictly positive (so no
        enqueue can land mid-batch), and no message faults are active;
        mechanisms unable to exploit the batching simply inherit this
        sequential default.
        """
        decisions = [self.assign(query) for query in queries]
        return BatchDecisions(
            [decision.node_id for decision in decisions],
            [decision.delay_ms for decision in decisions],
            [decision.messages for decision in decisions],
        )

    def _tick_prologue(self, queries: Sequence[Query]) -> Optional[
        Tuple[List[int], Dict[int, Tuple[int, ...]], List[int], List[float]]
    ]:
        """The shared opening of a fused :meth:`assign_batch`.

        Returns ``(classes, fanouts, widths, delays)``: each row's class,
        each class's live candidate tuple (resolved once: the batch shares
        one timestamp), each row's fan-out width, and each row's
        request-for-bid delay.  Every row's legs come from one C-level
        draw that splits the Mersenne stream exactly as the sequential
        fan-outs would; a zero-width row draws nothing and waits 0.0.
        Returns ``None`` when the tick cannot fuse: fewer than two
        queries, or message faults; the caller then takes the sequential
        default.
        """
        context = self.context
        if len(queries) < 2 or context.faults is not None:
            return None
        classes = [query.class_index for query in queries]
        fanouts = {k: context.available_candidates(k) for k in set(classes)}
        widths = [len(fanouts[k]) for k in classes]
        delays = context.network.round_trip_ms_batch(widths)
        return classes, fanouts, widths, delays

    def on_run_end(self) -> None:
        """Called once after the simulation drains; default does nothing.

        :class:`~repro.allocation.qant.QantAllocator` closes its last
        period here, so its per-period counters include it.
        """

    # -- shared protocol helpers --------------------------------------------------

    def _request_bids(
        self, query: Query, candidates: Sequence[int]
    ) -> FanoutResult:
        """The request-for-bid fan-out: one exchange with every candidate
        on the context's network.

        Fault-free, every request arrives and every reply beats the
        timeout, so ``replied == candidates`` and the delay is the
        slowest round trip (both the paper's implementations wait for all
        replies).  Under message faults the
        :class:`~repro.protocol.transport.FanoutResult` semantics apply:
        only peers in ``replied`` may win, while peers in ``delivered``
        ran their server-side dynamics regardless.
        """
        return self.context.network.fanout(query.origin_node, candidates)

    def _dispatch(self, query: Query, node_id: int) -> "AssignmentDecision":
        """Send the query to one already-chosen server.

        Used by the single-target mechanisms (random, round-robin,
        markov): one request/ack exchange with the chosen node.  When
        the request or its ack is lost, late, or partitioned away, the
        client cannot confirm the assignment — the decision becomes a
        refusal and the federation's backoff machinery paces the
        resubmission.
        """
        result = self.context.network.fanout(query.origin_node, (node_id,))
        return AssignmentDecision(
            node_id if result.replied else None,
            delay_ms=result.delay_ms,
            messages=result.messages,
        )

    def _coordinated_dispatch(
        self, query: Query, node_id: int
    ) -> "AssignmentDecision":
        """Dispatch after consulting a central coordinator (BNQRD, LB).

        The coordinator is co-located control-plane infrastructure
        reached over a reliable path, so only the client → server
        dispatch leg is ever exposed to message faults.  Fault-free the
        exchange is client → coordinator → client → server: two round
        trips, four messages — charged in one draw-compatible call so
        traces do not move.
        """
        context = self.context
        if context.faults is None:
            delay = context.network.round_trip_ms(2)
            return AssignmentDecision(node_id, delay_ms=delay, messages=4)
        # Coordinator round trip first (reliable), then the dispatch leg
        # on the faulty wire — the draw order the traces pin.
        coordination_ms = context.network.round_trip_ms(1)
        result = context.network.fanout(query.origin_node, (node_id,))
        return AssignmentDecision(
            node_id if result.replied else None,
            delay_ms=result.delay_ms + coordination_ms,
            messages=result.messages + 2,
        )
