"""Stochastic (Markov-chain / queueing-theory) allocation for static loads.

Models the mechanism of Drenick & Smith (cited as [4]): a central planner
that knows the *static* arrival rate of every query class and every node's
service times computes, once, the routing probabilities ``x[i][k]`` (the
fraction of class-*k* queries sent to node *i*) that minimise the expected
response time of the system, then routes queries by sampling those
probabilities.

Each node is approximated as an M/M/1 queue whose utilisation under a
routing plan is ``rho_i = sum_k rate_k * x_ik * e_ik`` and whose expected
response for class *k* is ``e_ik / (1 - rho_i)``.  The plan minimises the
rate-weighted mean response subject to the probabilities of each class
summing to one, eligibility, and stability (``rho_i`` capped).

Exactly as the paper says, the mechanism is centralised, assumes constant
execution times and a static workload, and needs full knowledge of node
capabilities — so it violates autonomy and cannot track dynamic loads
(Table 2).  It is included as the "excellent under static load" yardstick
(ablation A4): QA-NT should come close to it on static workloads.
"""

from __future__ import annotations

import math
import operator
from functools import reduce
from typing import Dict, List, Optional, Sequence

from ..query.model import Query
from .base import Allocator, AssignmentDecision

__all__ = [
    "optimise_routing",
    "MarkovAllocator",
]

#: Utilisation cap keeping every node's queue stable in the planner.
MAX_UTILISATION = 0.98


def optimise_routing(
    rates_per_ms: Sequence[float],
    cost_matrix_ms: Sequence[Sequence[float]],
    iterations: int = 400,
) -> List[List[float]]:
    """Minimise expected response time over routing probabilities.

    ``rates_per_ms[k]`` is class *k*'s arrival rate; ``cost_matrix_ms[i][k]``
    node *i*'s execution time (``inf`` = ineligible).  Returns
    ``x[i][k]``, the probability of routing class *k* to node *i*.

    Solved with projected coordinate descent: starting from a plan that
    splits each class across eligible nodes in inverse proportion to cost,
    the planner repeatedly shifts probability mass of each class from the
    node with the highest marginal response cost to the one with the
    lowest.  This converges to a stationary plan of the (convex on its
    stable domain) M/M/1 objective without external solver dependencies.
    """
    num_nodes = len(cost_matrix_ms)
    num_classes = len(rates_per_ms)
    if any(len(row) != num_classes for row in cost_matrix_ms):
        raise ValueError("cost matrix shape does not match rates")

    plan = _inverse_cost_seed(rates_per_ms, cost_matrix_ms)
    step = 0.25
    for __ in range(iterations):
        moved = False
        for k in range(num_classes):
            if rates_per_ms[k] <= 0:
                continue
            eligible = [
                i
                for i in range(num_nodes)
                if not math.isinf(cost_matrix_ms[i][k])
            ]
            if len(eligible) < 2:
                continue
            marginals = {
                i: _marginal_cost(i, k, plan, rates_per_ms, cost_matrix_ms)
                for i in eligible
            }
            donors = [i for i in eligible if plan[i][k] > 1e-9]
            if not donors:
                continue
            worst = max(donors, key=lambda i: marginals[i])
            best = min(eligible, key=lambda i: marginals[i])
            if marginals[worst] - marginals[best] <= 1e-9:
                continue
            transfer = min(step, plan[worst][k])
            if _utilisation_after(
                best, k, transfer, plan, rates_per_ms, cost_matrix_ms
            ) >= MAX_UTILISATION:
                continue
            plan[worst][k] -= transfer
            plan[best][k] += transfer
            moved = True
        if not moved:
            step *= 0.5
            if step < 1e-4:
                break
    return plan


def _inverse_cost_seed(
    rates: Sequence[float], costs: Sequence[Sequence[float]]
) -> List[List[float]]:
    num_nodes, num_classes = len(costs), len(rates)
    plan = [[0.0] * num_classes for __ in range(num_nodes)]
    for k in range(num_classes):
        weights = [
            0.0 if math.isinf(costs[i][k]) else 1.0 / costs[i][k]
            for i in range(num_nodes)
        ]
        # Float sums here run left to right: builtin ``sum`` compensates
        # its rounding from Python 3.12 on, which moves the last bits.
        total = reduce(operator.add, weights, 0.0)
        if total <= 0:
            continue
        for i in range(num_nodes):
            plan[i][k] = weights[i] / total
    return plan


def _node_utilisation(
    node: int,
    plan: Sequence[Sequence[float]],
    rates: Sequence[float],
    costs: Sequence[Sequence[float]],
) -> float:
    return reduce(
        operator.add,
        (
            rates[k] * plan[node][k] * costs[node][k]
            for k in range(len(rates))
            if plan[node][k] > 0 and not math.isinf(costs[node][k])
        ),
        0.0,
    )


def _utilisation_after(
    node: int,
    class_index: int,
    transfer: float,
    plan: Sequence[Sequence[float]],
    rates: Sequence[float],
    costs: Sequence[Sequence[float]],
) -> float:
    return (
        _node_utilisation(node, plan, rates, costs)
        + rates[class_index] * transfer * costs[node][class_index]
    )


def _marginal_cost(
    node: int,
    class_index: int,
    plan: Sequence[Sequence[float]],
    rates: Sequence[float],
    costs: Sequence[Sequence[float]],
) -> float:
    """Marginal expected response of pushing class mass onto ``node``.

    For an M/M/1 node, response scales as ``e / (1 - rho)``; the marginal
    cost grows steeply as utilisation approaches one, which is what steers
    mass away from saturated nodes.
    """
    rho = min(MAX_UTILISATION, _node_utilisation(node, plan, rates, costs))
    return costs[node][class_index] / (1.0 - rho) ** 2


class MarkovAllocator(Allocator):
    """Static stochastic routing from a precomputed probability plan."""

    name = "markov"
    respects_autonomy = False
    distributed = False

    def __init__(self, rates_per_ms: Sequence[float]):
        """``rates_per_ms[k]`` is the (assumed static) arrival rate of
        class *k* in queries per millisecond."""
        super().__init__()
        self._rates = list(rates_per_ms)
        self._plan: Optional[List[List[float]]] = None

    def _after_bind(self) -> None:
        costs = [
            list(self.context.nodes[nid].class_costs_ms)
            for nid in sorted(self.context.nodes)
        ]
        self._node_order = sorted(self.context.nodes)
        if len(self._rates) != len(costs[0]):
            raise ValueError("rates cover a different number of classes")
        self._plan = optimise_routing(self._rates, costs)

    def assign(self, query: Query) -> AssignmentDecision:
        candidates = self.context.available_candidates(query.class_index)
        if not candidates or self._plan is None:
            return AssignmentDecision(node_id=None)
        weights: Dict[int, float] = {}
        for position, nid in enumerate(self._node_order):
            if nid in candidates:
                weights[nid] = self._plan[position][query.class_index]
        total = reduce(operator.add, weights.values(), 0.0)
        if total <= 0:
            chosen = self.context.rng.choice(list(candidates))
        else:
            pick = self.context.rng.random() * total
            acc = 0.0
            chosen = next(iter(weights))
            for nid, weight in sorted(weights.items()):
                acc += weight
                if pick <= acc:
                    chosen = nid
                    break
        return self._dispatch(query, chosen)
