"""Supply sets and the seller's problem ``max p.s  s.t.  s in S_i`` (eq. 4).

A node's *supply set* ``S_i`` contains every supply vector the node could
feasibly produce in one time period given its hardware.  Each period, a
selfish seller picks the feasible vector with the largest virtual value at
current prices — the "first order conditions" step of the QA-NT pseudo-code.

Two supply-set families are provided:

* :class:`ExplicitSupplySet` — a finite enumeration, for small worked
  examples (the paper's Figure 1 instance) and for tests;
* :class:`CapacitySupplySet` — the production model: a node has a capacity
  budget of ``capacity_ms`` milliseconds of processing per period and each
  query of class *k* costs ``cost_ms[k]`` milliseconds on this node
  (``inf`` marks classes the node cannot evaluate at all, e.g. missing
  relations).  Feasibility is ``sum_k s_k * cost_ms[k] <= capacity_ms``.

For :class:`CapacitySupplySet` the seller's problem is an unbounded knapsack.
The solvers, named in :data:`SUPPLY_METHODS`, are all density orders,
because the paper's discussion of rounding error (Fig. 5a) makes the
integer/fractional distinction experimentally relevant:

* ``proportional`` — capacity split in proportion to price density (the
  smooth default; see :meth:`CapacitySupplySet._solve_proportional`);
* ``greedy`` — integer counts filled in decreasing density order; fast and
  within one query of optimal per class;
* ``greedy-fractional`` — the greedy fill plus the leftover capacity as a
  fraction of the best class;
* ``fractional`` — continuous relaxation: all capacity goes to the class
  with the best price density ``p_k / cost_ms[k]`` (the true market
  equilibrium behaviour).
"""

from __future__ import annotations

import abc
import math
import sys
from typing import Iterable, Iterator, List, Sequence, Tuple

from .vectors import QueryVector

__all__ = [
    "SupplySet",
    "ExplicitSupplySet",
    "CapacitySupplySet",
    "SUPPLY_METHODS",
    "solve_supply",
]

#: The eq. 4 solvers of :meth:`CapacitySupplySet.optimal_supply`, and so
#: every value ``QantParameters.supply_method`` accepts.  The period
#: engine batches each of them bit for bit.
SUPPLY_METHODS = ("proportional", "greedy", "greedy-fractional", "fractional")

#: A fractional fill below the smallest normal float counts as nothing.
#: Down there a quotient rounds to a whole number of denormals, so
#: ``budget / cost`` can come back *above* what the budget pays for
#: (``5e-324 / 1.5`` is ``5e-324`` again: utilisation 2.0).  Every
#: fractional solver clamps its fills with this; the batched mirror in
#: :mod:`repro.core.period_engine` uses the same constant.
MIN_FILL = sys.float_info.min


class SupplySet(abc.ABC):
    """Abstract supply set ``S_i`` of one node."""

    @property
    @abc.abstractmethod
    def num_classes(self) -> int:
        """Number of query classes ``K``."""

    @abc.abstractmethod
    def contains(self, vector: QueryVector) -> bool:
        """True iff ``vector`` is a feasible supply vector for this node."""

    @abc.abstractmethod
    def optimal_supply(self, prices: Sequence[float]) -> QueryVector:
        """Solve eq. 4: the feasible vector maximising ``p . s``."""

    def can_supply(self, class_index: int) -> bool:
        """True iff the node can evaluate queries of ``class_index`` at all.

        Default: a single query of the class must be feasible on an
        otherwise idle node.
        """
        return self.contains(QueryVector.unit(self.num_classes, class_index))


class ExplicitSupplySet(SupplySet):
    """A finite, explicitly enumerated supply set.

    Suitable for small instances where the feasible vectors are known, such
    as the paper's two-node introduction example.  The zero vector is always
    implicitly a member (a node may decline to supply anything).
    """

    def __init__(self, vectors: Iterable[QueryVector]):
        vecs = list(vectors)
        if not vecs:
            raise ValueError("an explicit supply set needs at least one vector")
        lengths = {v.num_classes for v in vecs}
        if len(lengths) != 1:
            raise ValueError("all supply vectors must cover the same K classes")
        self._num_classes = lengths.pop()
        zero = QueryVector.zeros(self._num_classes)
        members = set(vecs)
        members.add(zero)
        self._vectors = frozenset(members)

    @property
    def num_classes(self) -> int:
        return self._num_classes

    def __iter__(self) -> Iterator[QueryVector]:
        return iter(self._vectors)

    def __len__(self) -> int:
        return len(self._vectors)

    def contains(self, vector: QueryVector) -> bool:
        return vector in self._vectors

    def optimal_supply(self, prices: Sequence[float]) -> QueryVector:
        _check_prices(prices, self._num_classes)
        return max(self._vectors, key=lambda v: (v.dot(prices), v.total()))


class CapacitySupplySet(SupplySet):
    """Supply set of a node with a per-period processing-time budget.

    A supply vector ``s`` is feasible iff

    * ``s_k == 0`` for every class the node cannot evaluate
      (``cost_ms[k] == inf``), and
    * ``sum_k s_k * cost_ms[k] <= capacity_ms``.

    ``capacity_ms`` is normally the period length ``T`` scaled by the number
    of execution slots of the node (1 for the paper's serial nodes).
    """

    def __init__(self, cost_ms: Sequence[float], capacity_ms: float):
        if capacity_ms < 0:
            raise ValueError("capacity must be non-negative")
        if not cost_ms:
            raise ValueError("need a per-class cost for at least one class")
        costs = tuple(float(c) for c in cost_ms)
        for cost in costs:
            if cost <= 0:
                raise ValueError(
                    "per-query costs must be positive (use inf for "
                    "classes the node cannot evaluate)"
                )
        self._costs = costs
        self._capacity = float(capacity_ms)

    @property
    def num_classes(self) -> int:
        return len(self._costs)

    @property
    def capacity_ms(self) -> float:
        """The per-period processing budget in milliseconds."""
        return self._capacity

    @property
    def cost_ms(self) -> Tuple[float, ...]:
        """Per-class execution cost on this node, ``inf`` = cannot evaluate."""
        return self._costs

    def contains(self, vector: QueryVector) -> bool:
        if vector.num_classes != self.num_classes:
            return False
        used = 0.0
        for count, cost in zip(vector, self._costs):
            if count > 0 and math.isinf(cost):
                return False
            if count > 0:
                used += count * cost
        return used <= self._capacity + 1e-9

    def utilisation(self, vector: QueryVector) -> float:
        """Fraction of the capacity budget consumed by ``vector``."""
        if self._capacity == 0:
            return 0.0 if vector.is_zero() else math.inf
        used = sum(
            count * cost
            for count, cost in zip(vector, self._costs)
            if count > 0
        )
        return used / self._capacity

    # -- solvers -------------------------------------------------------------

    def optimal_supply(
        self, prices: Sequence[float], method: str = "greedy"
    ) -> QueryVector:
        """Solve eq. 4 with the requested ``method``.

        ``method`` is one of :data:`SUPPLY_METHODS`; see the module
        docstring for the trade-offs.  ``"greedy-fractional"`` is the
        greedy integer fill with the residual capacity assigned
        fractionally to the best remaining class — the natural input for
        QA-NT's carry-over accounting (see
        :class:`repro.core.qant.QantPricingAgent`).
        """
        _check_prices(prices, len(self._costs))
        if method == "fractional":
            return self._solve_fractional(prices)
        if method == "greedy":
            return self._solve_greedy(prices)
        if method == "greedy-fractional":
            return self._solve_greedy(prices, fractional_tail=True)
        if method == "proportional":
            return self._solve_proportional(prices)
        raise ValueError("unknown supply solver %r" % (method,))

    def _densities(self, prices: Sequence[float]) -> List[Tuple[float, int]]:
        """(density, class) pairs for evaluable classes with positive price,
        sorted by decreasing price density ``p_k / cost_k``."""
        costs = self._costs
        pairs = [
            (prices[k] / costs[k], k)
            for k in range(len(costs))
            if not math.isinf(costs[k]) and prices[k] > 0
        ]
        pairs.sort(key=lambda pair: (-pair[0], pair[1]))
        return pairs

    def _solve_fractional(self, prices: Sequence[float]) -> QueryVector:
        pairs = self._densities(prices)
        if not pairs:
            return QueryVector.zeros(self.num_classes)
        __, best_class = pairs[0]
        amount = self._capacity / self._costs[best_class]
        if amount < MIN_FILL:
            amount = 0.0
        return QueryVector.unit(self.num_classes, best_class, amount)

    def _solve_greedy(
        self,
        prices: Sequence[float],
        fractional_tail: bool = False,
    ) -> QueryVector:
        costs = self._costs
        remaining = self._capacity
        counts = [0.0] * len(costs)
        densities = self._densities(prices)
        for __, k in densities:
            if remaining < costs[k]:
                continue
            fit = math.floor(remaining / costs[k] + 1e-9)
            counts[k] = float(fit)
            remaining -= fit * costs[k]
        if fractional_tail and remaining > 0 and densities:
            # Sell the leftover capacity as a fraction of the best class
            # not yet saturated — QA-NT's carry-over accounting converts
            # these fractions into whole queries across periods.
            __, best = densities[0]
            tail = remaining / self._costs[best]
            if tail >= MIN_FILL:
                counts[best] += tail
        return QueryVector._from_trusted_tuple(tuple(counts))

    def _solve_proportional(
        self,
        prices: Sequence[float],
        sharpness: float = 2.0,
    ) -> QueryVector:
        """Capacity split across classes in proportion to price density.

        The exact maximiser of the linear seller problem is a corner (all
        capacity to the single best class), which makes the market's
        aggregate supply a step function of prices and invites cobweb
        oscillation when many sellers flip together.  The proportional
        solver is the standard smoothing: class *k* receives a capacity
        share proportional to ``density_k ** sharpness``, so supply
        responds continuously to prices while still concentrating on the
        most valuable classes.  As ``sharpness`` grows this converges to
        the corner solution; the returned vector is fractional.
        """
        pairs = self._densities(prices)
        if not pairs:
            return QueryVector.zeros(self.num_classes)
        top = pairs[0][0]
        if top <= 0.0:
            # Densities can underflow to zero for subnormal prices; with
            # no measurable value anywhere, supply nothing.
            return QueryVector.zeros(self.num_classes)
        weights = []
        total = 0.0
        for density, k in pairs:
            weight = (density / top) ** sharpness
            weights.append((weight, k))
            total += weight
        counts = [0.0] * self.num_classes
        capacity = self._capacity
        costs = self._costs
        for weight, k in weights:
            share_ms = capacity * weight / total
            amount = share_ms / costs[k]
            if amount >= MIN_FILL:
                counts[k] = amount
        return QueryVector._from_trusted_tuple(tuple(counts))


def solve_supply(
    supply_set: SupplySet,
    prices: Sequence[float],
    method: str = "greedy",
) -> QueryVector:
    """Convenience dispatcher for eq. 4 over any supply-set type.

    Explicit sets ignore ``method`` (enumeration is already exact).
    """
    if isinstance(supply_set, CapacitySupplySet):
        return supply_set.optimal_supply(prices, method=method)
    return supply_set.optimal_supply(prices)


def _check_prices(prices: Sequence[float], num_classes: int) -> None:
    if len(prices) != num_classes:
        raise ValueError(
            "price vector length %d does not match %d classes"
            % (len(prices), num_classes)
        )
    if any(p < 0 for p in prices):
        raise ValueError("prices must be non-negative")
