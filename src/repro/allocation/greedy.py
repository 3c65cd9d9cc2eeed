"""Greedy allocation: least estimated completion time (paper Section 4).

The client probes every candidate server for the estimated completion time
of its query (queue backlog plus execution time on that node) and
unilaterally assigns the query to the fastest one — which is why the paper
flags Greedy as violating server administrative autonomy.  An optional dash
of randomisation among near-best candidates is supported, as the paper
notes "a small amount of randomization may also be used".
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..query.model import Query
from .base import Allocator, AssignmentDecision, BatchDecisions

__all__ = [
    "GreedyAllocator",
]


class GreedyAllocator(Allocator):
    """Assign each query to the candidate that finishes it soonest."""

    name = "greedy"
    respects_autonomy = False
    distributed = True

    def __init__(self, randomisation: float = 0.0):
        """``randomisation`` widens the pool of acceptable candidates: any
        node within ``(1 + randomisation)`` of the best estimated
        completion may be picked uniformly.  Zero keeps classic Greedy."""
        super().__init__()
        if randomisation < 0:
            raise ValueError("randomisation must be non-negative")
        self._randomisation = randomisation

    def assign(self, query: Query) -> AssignmentDecision:
        candidates = self.context.available_candidates(query.class_index)
        if not candidates:
            return AssignmentDecision(node_id=None)
        # One probe exchange regardless of the fault regime: fault-free
        # every candidate replies; under message faults only nodes whose
        # estimate actually beat the bid timeout can be chosen, and total
        # silence is a refusal the client backs off on.
        exchange = self._request_bids(query, candidates)
        delay = exchange.delay_ms
        messages = exchange.messages
        if exchange.silent:
            return AssignmentDecision(
                node_id=None, delay_ms=delay, messages=messages
            )
        chosen = self._fastest(query.class_index, exchange.replied)
        return AssignmentDecision(chosen, delay_ms=delay, messages=messages)

    def assign_batch(self, queries: Sequence[Query]) -> BatchDecisions:
        """All arrivals of one simulated tick: one winner per class.

        Bit-identical to sequential :meth:`assign` calls.  Nothing
        commits before this returns (the federation enqueues after it,
        and batching requires positive delays), so neither the fleet's
        watermarks nor the outage state move between rows: every row of
        a class probes the same estimates and takes the same winner.  A
        class with no live candidate refuses without a draw.  A
        randomised pick draws the context RNG per query, in arrival
        order, so with ``randomisation`` the tick stays sequential.
        """
        tick = None if self._randomisation else self._tick_prologue(queries)
        if tick is None:
            return super().assign_batch(queries)
        classes, fanouts, widths, delays = tick
        winners = {
            k: self._fastest(k, candidates) if candidates else None
            for k, candidates in fanouts.items()
        }
        return BatchDecisions(
            [winners[k] for k in classes], delays, [2 * n for n in widths]
        )

    def _fastest(self, class_index: int, candidates: Tuple[int, ...]) -> int:
        """The probed candidate with the earliest estimated completion
        (lowest id at equal time), or a uniform pick among the near-best
        with ``randomisation``."""
        context = self.context
        if (
            self._randomisation == 0.0
            and candidates is context.candidates_by_class.get(class_index)
        ):
            # Vectorised probe scan: the registry tuple came back
            # unfiltered (no outages, fault-free), so the per-class view
            # is cache-stable and one argmin replaces the per-node probe
            # loop.  `estimates` is element-for-element the scalar probe
            # and first-occurrence argmin over ascending node ids matches
            # the tuple-min tie-break (lowest id at equal time).
            fleet = context.fleet
            view = fleet.class_view(class_index, candidates, context.nodes)
            est = fleet.estimates(view, context.simulator.now)
            return int(view.ids[int(est.argmin())])
        nodes = context.nodes
        completions = [
            (nodes[nid].estimated_completion_ms(class_index), nid)
            for nid in candidates
        ]
        if self._randomisation == 0.0:
            return min(completions)[1]
        best_time = min(completions)[0]
        pool: List[int] = [
            nid
            for time_ms, nid in completions
            if time_ms <= best_time * (1.0 + self._randomisation)
        ]
        return context.rng.choice(pool)
