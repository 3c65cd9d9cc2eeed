"""Pareto dominance and Pareto optimality of allocations (paper Def. 1).

An *allocation* (called a *solution* in the paper) assigns each node a
consumption vector and a supply vector, written ``<[s_i], [c_i]>``.  One
allocation Pareto-dominates another iff every node weakly prefers its
consumption in the first and at least one node strictly prefers it.  An
allocation is Pareto optimal when no feasible allocation dominates it.

The enumeration helpers here are exponential in the problem size and exist
for verifying small instances (the paper's two-node example, unit tests,
property-based tests) — the whole point of QA-NT is to reach Pareto optimal
allocations *without* such enumeration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from .preferences import ThroughputPreference
from .vectors import QueryVector, aggregate

__all__ = [
    "Allocation",
    "pareto_dominates",
    "is_pareto_optimal",
    "enumerate_allocations",
]

#: The paper's preference; node identity does not matter, so every node
#: shares it.
_PREFERENCE = ThroughputPreference()


@dataclass(frozen=True)
class Allocation:
    """A solution ``<[s_i], [c_i]>`` of the QA problem.

    ``supplies[i]`` and ``consumptions[i]`` are the supply and consumption
    vectors of node *i*.  The class only stores the solution; feasibility
    with respect to supply sets is checked by the caller (see
    :func:`enumerate_allocations`).
    """

    supplies: Tuple[QueryVector, ...]
    consumptions: Tuple[QueryVector, ...]

    def __post_init__(self) -> None:
        if len(self.supplies) != len(self.consumptions):
            raise ValueError(
                "allocation must have one supply and one consumption vector "
                "per node (%d supplies vs %d consumptions)"
                % (len(self.supplies), len(self.consumptions))
            )
        if not self.supplies:
            raise ValueError("allocation must cover at least one node")

    @property
    def num_nodes(self) -> int:
        """Number of nodes ``I`` covered by the allocation."""
        return len(self.supplies)


def pareto_dominates(first: Allocation, second: Allocation) -> bool:
    """Paper Definition 1: does ``first`` Pareto-dominate ``second``?

    Every node must weakly prefer its consumption under ``first`` and at
    least one node must strictly prefer it, under the paper's throughput
    preference.
    """
    if first.num_nodes != second.num_nodes:
        raise ValueError("allocations cover different numbers of nodes")
    weakly_better_everywhere = all(
        _PREFERENCE.prefers(c1, c2)
        for c1, c2 in zip(first.consumptions, second.consumptions)
    )
    strictly_better_somewhere = any(
        _PREFERENCE.strictly_prefers(c1, c2)
        for c1, c2 in zip(first.consumptions, second.consumptions)
    )
    return weakly_better_everywhere and strictly_better_somewhere


def is_pareto_optimal(
    candidate: Allocation, alternatives: Iterable[Allocation]
) -> bool:
    """True iff no allocation in ``alternatives`` dominates ``candidate``.

    ``alternatives`` should enumerate the feasible solution space (it may
    include ``candidate`` itself — an allocation never dominates itself).
    """
    return not any(pareto_dominates(other, candidate) for other in alternatives)


def enumerate_allocations(
    demands: Sequence[QueryVector],
    supply_sets: Sequence[Iterable[QueryVector]],
) -> List[Allocation]:
    """Enumerate every feasible market-clearing allocation of a tiny instance.

    For each combination of per-node supply vectors (one from each node's
    supply set) whose aggregate does not exceed aggregate demand, the
    aggregate supply is distributed to consumers greedily, never exceeding a
    node's own demand.  Exponential — intended only for verification of
    instances with a handful of nodes and small supply sets, such as the
    paper's Figure 1 example.
    """
    if len(demands) != len(supply_sets):
        raise ValueError("need exactly one supply set per node")
    num_classes = demands[0].num_classes
    total_demand = aggregate(demands)
    allocations: List[Allocation] = []
    for combo in itertools.product(*[list(s) for s in supply_sets]):
        agg_supply = aggregate(combo)
        if not agg_supply.componentwise_le(total_demand):
            continue
        consumptions = _distribute(agg_supply, demands, num_classes)
        allocations.append(
            Allocation(supplies=tuple(combo), consumptions=tuple(consumptions))
        )
    return allocations


def _distribute(
    agg_supply: QueryVector,
    demands: Sequence[QueryVector],
    num_classes: int,
) -> List[QueryVector]:
    """Split aggregate supply into per-node consumptions bounded by demand."""
    remaining = list(agg_supply.components)
    consumptions = []
    for demand in demands:
        comps = []
        for k in range(num_classes):
            take = min(remaining[k], demand[k])
            comps.append(take)
            remaining[k] -= take
        consumptions.append(QueryVector(comps))
    return consumptions
