"""Greedy allocation: least estimated completion time (paper Section 4).

The client probes every candidate server for the estimated completion time
of its query (queue backlog plus execution time on that node) and
unilaterally assigns the query to the fastest one — which is why the paper
flags Greedy as violating server administrative autonomy.  An optional dash
of randomisation among near-best candidates is supported, as the paper
notes "a small amount of randomization may also be used".
"""

from __future__ import annotations

from typing import List

from ..query.model import Query
from .base import Allocator, AssignmentDecision

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
        candidates = exchange.replied
        context = self.context
        nodes = context.nodes
        if (
            self._randomisation == 0.0
            and context.faults is None
            and candidates
            is context.candidates_by_class.get(query.class_index, ())
        ):
            # Vectorised probe scan: the registry tuple came back
            # unfiltered (no outages, fault-free), so the per-class view
            # is cache-stable and one argmin replaces the per-node probe
            # loop.  `estimates` is element-for-element the scalar probe
            # and first-occurrence argmin over ascending node ids matches
            # the tuple-min tie-break (lowest id at equal time).
            fleet = context.fleet
            view = fleet.class_view(query.class_index, candidates, nodes)
            est = fleet.estimates(view, context.simulator.now)
            chosen = int(view.ids[int(est.argmin())])
            return AssignmentDecision(
                chosen, delay_ms=delay, messages=messages
            )
        completions = [
            (nodes[nid].estimated_completion_ms(query.class_index), nid)
            for nid in candidates
        ]
        best_time = min(completions)[0]
        if self._randomisation == 0.0:
            chosen = min(completions)[1]
        else:
            pool: List[int] = [
                nid
                for time_ms, nid in completions
                if time_ms <= best_time * (1.0 + self._randomisation)
            ]
            chosen = self.context.rng.choice(pool)
        return AssignmentDecision(chosen, delay_ms=delay, messages=messages)
