"""Per-node private query classification (paper Section 3.3).

Identifying one global query-class set ``Q`` in a federation "is difficult
and requires pieces of information that compromise node autonomy", so the
paper lets *each node proceed with its own private classification*: prices
are private, so nothing forces two nodes to price the same classes.  The
only restriction is that queries a node lumps together must need similar
resources on that node.

:class:`ClassificationScheme` maps the federation's (observable) query
classes onto a node's private buckets, and
:class:`PrivatelyClassifiedAgent` wraps a :class:`~repro.core.qant.
QantPricingAgent` priced over the buckets while exposing the standard
global-index API — so the federation allocator drives nodes with
different classifications without knowing it.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from .qant import QantParameters, QantPeriodStats, QantPricingAgent
from .supply import CapacitySupplySet
from .vectors import QueryVector

__all__ = [
    "ClassificationScheme",
    "PrivatelyClassifiedAgent",
    "cost_band_classification",
]


class ClassificationScheme:
    """A node's private mapping from global classes to its own buckets."""

    def __init__(self, mapping: Sequence[int]):
        """``mapping[k]`` is the private bucket of global class *k*.

        Buckets must be consecutive integers starting at zero (use
        :func:`cost_band_classification` to build one from costs).
        """
        if not mapping:
            raise ValueError("the classification must cover at least one class")
        buckets = sorted(set(mapping))
        if buckets != list(range(len(buckets))):
            raise ValueError(
                "buckets must be consecutive integers starting at zero"
            )
        self._mapping = tuple(int(b) for b in mapping)
        self._num_buckets = len(buckets)

    @property
    def num_global_classes(self) -> int:
        """Number of global classes covered."""
        return len(self._mapping)

    @property
    def num_buckets(self) -> int:
        """Number of private buckets."""
        return self._num_buckets

    def bucket_of(self, global_class: int) -> int:
        """The private bucket of ``global_class``."""
        return self._mapping[global_class]

    def members_of(self, bucket: int) -> Tuple[int, ...]:
        """Global classes inside ``bucket``."""
        return tuple(
            k for k, b in enumerate(self._mapping) if b == bucket
        )

    def bucket_costs(self, global_costs_ms: Sequence[float]) -> List[float]:
        """Private per-bucket costs from global per-class costs.

        A bucket's cost is the mean of its *evaluable* members — the
        paper's restriction that co-classified queries need similar
        resources makes the mean representative.  A bucket whose members
        are all inevaluable costs ``inf``.
        """
        if len(global_costs_ms) != len(self._mapping):
            raise ValueError("cost row covers a different number of classes")
        costs = []
        for bucket in range(self._num_buckets):
            finite = [
                global_costs_ms[k]
                for k in self.members_of(bucket)
                if not math.isinf(global_costs_ms[k])
            ]
            costs.append(sum(finite) / len(finite) if finite else math.inf)
        return costs


def cost_band_classification(
    costs_ms: Sequence[float], num_buckets: int
) -> ClassificationScheme:
    """Group classes into ``num_buckets`` bands of similar cost.

    This is the natural private classification: a node cares about how
    much of *its* time a query takes, so it buckets by its own execution
    cost (geometric bands between its cheapest and dearest class).
    Inevaluable classes all land in the dearest band.
    """
    if num_buckets <= 0:
        raise ValueError("need at least one bucket")
    finite = [c for c in costs_ms if not math.isinf(c)]
    if not finite:
        return ClassificationScheme([0] * len(costs_ms))
    low, high = min(finite), max(finite)
    mapping = []
    for cost in costs_ms:
        if math.isinf(cost):
            mapping.append(num_buckets - 1)
        elif high <= low:
            mapping.append(0)
        else:
            position = math.log(cost / low) / math.log(high / low + 1e-12)
            mapping.append(min(num_buckets - 1, int(position * num_buckets)))
    used = sorted(set(mapping))
    renumber = {bucket: index for index, bucket in enumerate(used)}
    return ClassificationScheme([renumber[b] for b in mapping])


class PrivatelyClassifiedAgent:
    """A QA-NT agent pricing private buckets behind the global-index API.

    Drop-in compatible with :class:`~repro.core.qant.QantPricingAgent`
    where the federation allocator is concerned: ``would_offer`` /
    ``accept`` take *global* class indices and are translated to the
    node's private buckets internally.  Supply planned for a bucket can
    be sold as any member class — which is exactly the resource-level
    semantics the paper's restriction guarantees.
    """

    def __init__(
        self,
        scheme: ClassificationScheme,
        global_costs_ms: Sequence[float],
        capacity_ms: float,
        parameters: Optional[QantParameters] = None,
    ):
        self._scheme = scheme
        self._global_costs = list(global_costs_ms)
        # The bucket cost row never changes; computing it once lets the
        # per-period capacity rebind share it (and the solver cache) via
        # `with_capacity` instead of rebuilding the supply set.
        self._bucket_costs = scheme.bucket_costs(global_costs_ms)
        self._bucket_of = tuple(
            scheme.bucket_of(k) for k in range(scheme.num_global_classes)
        )
        self._agent = QantPricingAgent(
            CapacitySupplySet(self._bucket_costs, capacity_ms),
            parameters=parameters,
        )

    @property
    def scheme(self) -> ClassificationScheme:
        """The node's private classification."""
        return self._scheme

    @property
    def private_agent(self) -> QantPricingAgent:
        """The wrapped bucket-space agent (for inspection)."""
        return self._agent

    @property
    def num_classes(self) -> int:
        """Number of *global* classes this agent understands."""
        return self._scheme.num_global_classes

    @property
    def in_period(self) -> bool:
        """True between begin_period and end_period."""
        return self._agent.in_period

    @property
    def prices(self):
        """The private bucket prices (never shared on the wire)."""
        return self._agent.prices

    @property
    def max_price(self) -> float:
        """The largest current bucket price (overload signal)."""
        return self._agent.max_price

    @property
    def planned_supply(self) -> QueryVector:
        """The period's planned supply over the *private* bucket space.

        Exposed for observability (e.g. :class:`repro.sim.tracing.
        MarketTracer`); note the components are buckets, not global
        classes.
        """
        return self._agent.planned_supply

    @property
    def remaining_supply(self) -> Tuple[float, ...]:
        """Remaining supply expressed per *global* class.

        Each global class reports its bucket's remaining count (bucket
        supply is fungible across member classes).
        """
        bucket_remaining = self._agent.remaining_supply
        return tuple(
            bucket_remaining[bucket] for bucket in self._bucket_of
        )

    def rebind_capacity(self, capacity_ms: float) -> None:
        """Rebind the bucket supply set to a new free-capacity budget."""
        supply_set = self._agent.supply_set
        if isinstance(supply_set, CapacitySupplySet):
            supply_set = supply_set.with_capacity(capacity_ms)
        else:
            supply_set = CapacitySupplySet(self._bucket_costs, capacity_ms)
        self._agent.rebind_supply_set(supply_set)

    def begin_period(self) -> QueryVector:
        """Step 2 of QA-NT over the private bucket space."""
        return self._agent.begin_period()

    def would_offer(self, global_class: int) -> bool:
        """Offer iff the class's bucket has remaining supply.

        A class the node cannot evaluate is refused outright without a
        price signal — no price could make the data appear.
        """
        if math.isinf(self._global_costs[global_class]):
            return False
        return self._agent.would_offer(self._bucket_of[global_class])

    def quote(
        self, global_class: int, activation_threshold: Optional[float] = None
    ) -> bool:
        """Fused would-offer + activation check over the private buckets.

        Mirrors :meth:`QantPricingAgent.quote`, the call the federation
        allocator's negotiation drives, translated to this node's buckets.
        An inevaluable class is refused without a price signal — and
        without consulting the activation threshold, since no price level
        can make the missing data appear.
        """
        if not 0 <= global_class < self.num_classes:
            raise IndexError("class index %d out of range" % global_class)
        if math.isinf(self._global_costs[global_class]):
            return False
        return self._agent.quote(
            self._bucket_of[global_class], activation_threshold
        )

    def supply_left(self, global_class: int) -> float:
        """Remaining supply of the class's bucket (fungible members)."""
        return self._agent.supply_left(self._bucket_of[global_class])

    def accept(self, global_class: int) -> None:
        """Consume one unit of the class's bucket supply."""
        self._agent.accept(self._bucket_of[global_class])

    def end_period(self) -> QantPeriodStats:
        """Steps 12–14 over the private bucket space."""
        return self._agent.end_period()
