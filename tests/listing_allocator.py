"""The paper listing as a whole-run QA-NT allocator: the tests' reference.

``QantAllocator`` keeps its market in the period engine's arrays and
prices every exchange on a lane block over them.  ``ListingAllocator`` is
the same mechanism with everything but the listing removed: the agents
are the state, each boundary is every agent's own ``end_period`` →
``rebind_supply_set(CapacitySupplySet(costs, free))`` →
``begin_period``, and each
exchange is ``quote`` on every bidder the request reached, then
``accept`` on the earliest-completion offer among those that replied.
No engine, lane, batch or saturation shortcut, and no code shared with
``repro.allocation.qant`` beyond the ``Allocator`` base.  It takes the
same parameters, so a test runs both on one world and trace and compares
outcomes, messages, ``market_rows()`` and ``market_state()``.
"""

import math

from repro.allocation.base import Allocator, AssignmentDecision
from repro.core.qant import (
    DEFAULT_ACTIVATION_THRESHOLD,
    DEFAULT_ALLOWANCE_FACTOR,
    QantParameters,
    QantPricingAgent,
)
from repro.core.supply import CapacitySupplySet


class ListingAllocator(Allocator):
    """QA-NT driven through ``QantPricingAgent``'s four calls only."""

    name = "qa-nt"

    def __init__(
        self,
        parameters=None,
        adopters=None,
        activation_threshold=DEFAULT_ACTIVATION_THRESHOLD,
        queue_allowance_ms=None,
    ):
        super().__init__()
        self._params = parameters or QantParameters()
        self._adopters = None if adopters is None else set(adopters)
        self._threshold = activation_threshold
        self._allowance_ms = queue_allowance_ms
        self.agents = {}
        self._allowances = {}
        self._last_good = {}

    def _after_bind(self):
        context = self.context
        for node_id in context.fleet.node_ids:
            if self._adopters is not None and node_id not in self._adopters:
                continue
            node = context.nodes[node_id]
            allowance = self._allowance_ms
            if allowance is None:
                finite = [c for c in node.class_costs_ms if not math.isinf(c)]
                allowance = context.period_ms + DEFAULT_ALLOWANCE_FACTOR * max(
                    finite, default=0.0
                )
            self._allowances[node_id] = allowance
            self.agents[node_id] = QantPricingAgent(
                CapacitySupplySet(node.class_costs_ms, context.period_ms),
                self._params,
            )
        self.on_period_start()

    def on_period_start(self):
        for node_id, agent in self.agents.items():
            if agent.in_period:
                agent.end_period()
            load = self.context.nodes[node_id].current_load_ms()
            free = max(0.0, self._allowances[node_id] - load)
            agent.rebind_supply_set(
                CapacitySupplySet(agent.supply_set.cost_ms, free)
            )
            agent.begin_period()

    def market_state(self):
        """``QantAllocator.market_state()``, read from the agents."""
        return [
            (
                node_id,
                (
                    agent.prices.values,
                    tuple(agent._remaining),
                    tuple(agent._credit),
                    agent.planned_supply.components,
                    agent.supply_set.capacity_ms,
                    agent._enforce_locked_at,
                ),
            )
            for node_id, agent in self.agents.items()
        ]

    def market_rows(self):
        return [
            (node_id, agent.prices.values, agent.planned_supply.components)
            for node_id, agent in self.agents.items()
        ]

    def assign(self, query):
        k = query.class_index
        context = self.context
        candidates = context.available_candidates(k)
        if not candidates:
            return AssignmentDecision(node_id=None)
        exchange = self._request_bids(query, candidates)
        # A non-adopter always offers.
        offered = {
            node_id
            for node_id in exchange.delivered
            if node_id not in self.agents
            or self.agents[node_id].quote(k, self._threshold)
        }
        offers = [node_id for node_id in exchange.replied if node_id in offered]
        chosen = None
        if offers:
            self._last_good[k] = tuple(offers)
            chosen = self._accept(offers, k)
        elif not exchange.replied:
            # Total silence under message faults: the stale cache.
            live = set(candidates)
            reachable = context.faults.reachable(
                query.origin_node,
                [n for n in self._last_good.get(k, ()) if n in live],
                context.simulator.now,
            )
            if reachable:
                chosen = self._accept(reachable, k)
                context.faults.note_degraded()
        return AssignmentDecision(
            chosen, delay_ms=exchange.delay_ms, messages=exchange.messages
        )

    def _accept(self, offers, k):
        nodes = self.context.nodes
        __, chosen = min(
            (nodes[n].estimated_completion_ms(k), n) for n in offers
        )
        agent = self.agents.get(chosen)
        if agent is not None and agent.supply_left(k) >= 1:
            agent.accept(k)
        return chosen
