"""QA-NT: the decentralised non-tatonnement pricing agent (Section 3.3).

One :class:`QantPricingAgent` runs inside every *server* node.  Per time
period ``tau`` it follows the paper's pseudo-code:

1. solve eq. 4 at the current private prices, obtaining the period's
   optimal supply vector ``s_i``;
2. while the period lasts, *immediately* offer to evaluate a requested
   query of class *k* iff ``s_ik > 0`` (no fairness negotiation) and
   decrement ``s_ik`` when the offer is accepted;
3. when a request arrives for a class with no remaining supply, refuse and
   raise that class's price: ``p_k += lambda * p_k``;
4. at the period's end, lower the price of every class with unsold supply:
   ``p_k -= s_ik * lambda * p_k``.

Prices are strictly private — they are never exchanged between nodes.
(Section 3.3 adds that each node may even use its own query
classification; no figure depends on that, and here every agent prices
the one global class set — DESIGN.md §2.)
Trading failures are the *only* price signals, which is what makes the
process non-tatonnement: trade happens continuously at disequilibrium
prices rather than waiting for an umpire to clear the market.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from .market import PriceVector
from .supply import SUPPLY_METHODS, SupplySet, solve_supply
from .vectors import QueryVector

__all__ = [
    "QantParameters",
    "QantPeriodStats",
    "QantPricingAgent",
    "backlog_allowance_ms",
]

#: Prices are clamped to this floor so a class can always recover: a price
#: that reached exactly zero could never be raised again by the
#: multiplicative update.
DEFAULT_PRICE_FLOOR = 1e-6

#: Symmetric cap guarding against runaway prices during long overloads.
DEFAULT_PRICE_CAP = 1e9

#: Price level above which a deployed node enforces its supply vector
#: (Section 5.1's threshold rule): with the default lambda of 0.1, a
#: class reaches it after roughly seven net refusals — a
#: sustained-overload signal.
DEFAULT_ACTIVATION_THRESHOLD = 2.0

#: Backlog allowance of a deployed node: it sells supply up to the
#: period length plus this many times its largest class cost.  One
#: max-cost of headroom guarantees an idle node can always admit its
#: biggest query (otherwise integer supply rounds long queries to zero —
#: the Section 5.1 rounding issue); the second softens retry
#: quantisation under bursty loads.  No ablation varies it; every golden
#: is recorded at this value.
DEFAULT_ALLOWANCE_FACTOR = 2.0


def backlog_allowance_ms(period_ms: float, costs_ms: Iterable[float]) -> float:
    """A deployed node's backlog allowance: ``period_ms`` plus
    :data:`DEFAULT_ALLOWANCE_FACTOR` times its largest finite class cost
    (``inf`` marks a class it cannot evaluate; a node that can evaluate
    none gets ``period_ms``)."""
    return period_ms + DEFAULT_ALLOWANCE_FACTOR * max(
        (c for c in costs_ms if not math.isinf(c)), default=0.0
    )


@dataclass(frozen=True)
class QantParameters:
    """Tunables of the QA-NT price dynamics.

    ``adjustment`` is the paper's ``lambda``: the relative step applied on
    every trading failure.  The paper observes larger values react faster
    but estimate the equilibrium less accurately (ablation A1).
    """

    adjustment: float = 0.1
    #: How a seller splits its capacity across classes at given prices.
    #: ``"proportional"`` (default) responds smoothly to prices, which
    #: stabilises the market (see
    #: :meth:`repro.core.supply.CapacitySupplySet._solve_proportional`);
    #: ``"greedy"``/``"greedy-fractional"``/``"fractional"`` give the
    #: corner solution of the pure linear seller problem and are kept for
    #: ablations.  One of :data:`repro.core.supply.SUPPLY_METHODS`.
    supply_method: str = "proportional"
    #: Accumulate fractional supply across periods.  When the supply
    #: budget is shorter than a query's execution time, the per-period
    #: equilibrium supply is a small real number (the paper's Section 5.1
    #: rounding discussion); carrying the fraction forward lets a node
    #: offer one such query every few periods instead of never.
    carry_over: bool = True
    price_floor: float = DEFAULT_PRICE_FLOOR
    price_cap: float = DEFAULT_PRICE_CAP

    def __post_init__(self) -> None:
        if self.supply_method not in SUPPLY_METHODS:
            raise ValueError(
                "unknown supply method %r (expected one of %s)"
                % (self.supply_method, ", ".join(SUPPLY_METHODS))
            )
        if self.adjustment <= 0:
            raise ValueError("lambda (adjustment) must be positive")
        if self.price_floor <= 0:
            raise ValueError("price floor must be positive")
        if self.price_cap <= self.price_floor:
            raise ValueError("price cap must exceed the price floor")


@dataclass
class QantPeriodStats:
    """Bookkeeping for one elapsed period of one agent (for tests/metrics)."""

    planned_supply: QueryVector
    accepted: List[int]
    refused: List[int]

    @property
    def total_accepted(self) -> int:
        """Queries this node agreed to evaluate during the period."""
        return sum(self.accepted)

    @property
    def total_refused(self) -> int:
        """Requests turned away (each one raised a price)."""
        return sum(self.refused)


class QantPricingAgent:
    """The per-node QA-NT agent: private prices + period supply budget.

    The agent is deliberately framework-agnostic: the SQLite server
    nodes (:mod:`repro.dbms`) and the tests' reference allocator drive it
    through the same four calls — :meth:`begin_period`, :meth:`quote`,
    :meth:`accept`, :meth:`end_period`.  The simulator keeps its agents'
    state in the arrays of :mod:`repro.core.period_engine`, which
    reproduce these calls bit for bit.
    """

    def __init__(
        self,
        supply_set: SupplySet,
        parameters: Optional[QantParameters] = None,
        initial_prices: Optional[PriceVector] = None,
    ):
        self._supply_set = supply_set
        self._params = parameters or QantParameters()
        num_classes = supply_set.num_classes
        initial = initial_prices or PriceVector.uniform(num_classes)
        if initial.num_classes != num_classes:
            raise ValueError("initial prices cover the wrong number of classes")
        # Price state lives in a mutable list so the per-refusal updates
        # are in-place; the immutable PriceVector is materialised lazily
        # when `.prices` is read.
        self._price_values: List[float] = list(initial.values)
        self._prices_cache: Optional[PriceVector] = initial
        self._max_price = max(self._price_values)
        self._num_classes = num_classes
        # Per-period state.  The simulator's period engine keeps the same
        # fields as arrays and never touches these lists.
        self._remaining: List[float] = [0.0] * num_classes
        self._credit: List[float] = [0.0] * num_classes
        self._planned = QueryVector.zeros(num_classes)
        self._accepted = [0] * num_classes
        self._refused = [0] * num_classes
        self._in_period = False
        # Per-period latch: within a period prices only rise, so once
        # `max_price` has been observed at/above an activation threshold
        # the node enforces its supply vector for the rest of the period
        # (for that threshold or any smaller one).  Holds the crossed
        # threshold value, or None.  Purely an optimisation — answers are
        # unchanged.
        self._enforce_locked_at: Optional[float] = None

    # -- read-only state ----------------------------------------------------

    @property
    def num_classes(self) -> int:
        """Number of query classes this agent prices."""
        return self._num_classes

    @property
    def parameters(self) -> QantParameters:
        """The agent's QA-NT tunables (immutable, often shared)."""
        return self._params

    @property
    def prices(self) -> PriceVector:
        """The node's *private* price vector (never shared on the wire)."""
        cached = self._prices_cache
        if cached is None:
            cached = PriceVector._from_trusted_tuple(tuple(self._price_values))
            self._prices_cache = cached
        return cached

    @property
    def max_price(self) -> float:
        """The largest current class price (the overload signal).

        Maintained incrementally so per-request threshold checks (the
        Section 5.1 activation rule) do not rescan all K prices.
        """
        value = self._max_price
        if value is None:
            value = max(self._price_values)
            self._max_price = value
        return value

    @property
    def supply_set(self) -> SupplySet:
        """The node's supply set ``S_i``."""
        return self._supply_set

    @property
    def remaining_supply(self) -> Tuple[float, ...]:
        """Unsold portion of the period's planned supply vector."""
        return tuple(self._remaining)

    @property
    def planned_supply(self) -> QueryVector:
        """The supply vector chosen at :meth:`begin_period` (eq. 4)."""
        return self._planned

    @property
    def in_period(self) -> bool:
        """True between :meth:`begin_period` and :meth:`end_period`."""
        return self._in_period

    def rebind_supply_set(self, supply_set: SupplySet) -> None:
        """Replace the agent's supply set (prices are kept).

        Supply sets change between periods when a node's free capacity
        changes — e.g. outstanding queued work reduces what it can sell
        next period.  Only allowed between periods.
        """
        if self._in_period:
            raise RuntimeError("cannot swap the supply set mid-period")
        if supply_set.num_classes != self.num_classes:
            raise ValueError("new supply set covers a different class count")
        self._supply_set = supply_set

    # -- the QA-NT pseudo-code ------------------------------------------------

    def begin_period(self) -> QueryVector:
        """Step 2: solve eq. 4 at current prices; reset the period budget.

        The optimal supply is generally fractional when query execution
        times exceed the period length.  With ``carry_over`` enabled
        (default), the fractional parts accumulate as per-class credit and
        convert into whole offered queries once they reach 1 — otherwise
        they are simply floored away (the paper's rounding error, worth
        ablating).  Returns the planned (integer) supply vector.
        """
        optimal = solve_supply(
            self._supply_set,
            self._price_values,
            method=self._params.supply_method,
        )
        if self._params.carry_over:
            credit = self._credit
            planned_counts = []
            for k, amount in enumerate(optimal):
                credit[k] += amount
                whole = float(int(credit[k] + 1e-9))
                credit[k] -= whole
                planned_counts.append(whole)
            self._planned = QueryVector._from_trusted_tuple(
                tuple(planned_counts)
            )
        else:
            self._planned = optimal.rounded()
        self._remaining[:] = self._planned.components
        self._accepted[:] = [0] * self._num_classes
        self._refused[:] = [0] * self._num_classes
        self._in_period = True
        self._enforce_locked_at = None
        return self._planned

    def would_offer(self, class_index: int) -> bool:
        """Steps 4–10: react to a client's request for a class-*k* query.

        Returns True when the node offers to evaluate the query
        (``s_ik > 0``).  When it refuses, the class price is raised
        immediately (step 9) — a refusal is a trading failure and therefore
        a price signal.
        """
        return self.quote(class_index)

    def quote(
        self, class_index: int, activation_threshold: Optional[float] = None
    ) -> bool:
        """One node-side answer to a request-for-bid, in a single call.

        The scalar spelling of the market (Def. 4):
        :meth:`would_offer` fused with the
        Section 5.1 activation rule.  Returns True when the node's reply
        to the client is an *offer* — either its supply vector covers the
        class, or (after the refusal raised the class price, as every
        trading failure must) its prices sit below
        ``activation_threshold`` so the vector is not enforced.  With the
        default ``activation_threshold=None`` the supply vector is always
        enforced and this is exactly :meth:`would_offer`.
        """
        if not self._in_period:
            self._require_period()
        if not 0 <= class_index < self._num_classes:
            self._check_class(class_index)
        if self._remaining[class_index] >= 1.0:
            return True
        # Steps 8-9: refuse and raise the class price.
        self._refused[class_index] += 1
        self._raise_price(class_index)
        if activation_threshold is None:
            return False
        # Within a period prices only rise, so once the threshold is
        # crossed it stays crossed: the latch answers without re-reading
        # max_price (valid for this threshold or any smaller one).
        locked_at = self._enforce_locked_at
        if locked_at is not None and activation_threshold <= locked_at:
            return False
        # Read the cached maximum directly: the `max_price` property costs
        # a call frame per refusal, and only it knows how to recompute.
        max_price = self._max_price
        if max_price is None:
            max_price = self.max_price
        if max_price < activation_threshold:
            return True
        self._enforce_locked_at = activation_threshold
        return False

    def supply_left(self, class_index: int) -> float:
        """Remaining unsold supply of one class (no tuple materialised).

        Equivalent to ``remaining_supply[class_index]`` without building
        the full tuple — the acceptance path reads exactly one component.
        """
        return self._remaining[class_index]

    def accept(self, class_index: int) -> None:
        """Step 6: a previously made offer was accepted; consume supply."""
        if not self._in_period:
            self._require_period()
        if not 0 <= class_index < self._num_classes:
            self._check_class(class_index)
        if self._remaining[class_index] < 1.0:
            raise RuntimeError(
                "node accepted a class-%d query without remaining supply"
                % class_index
            )
        self._remaining[class_index] -= 1.0
        self._accepted[class_index] += 1

    def end_period(self) -> QantPeriodStats:
        """Steps 12–14: unsold supply lowers prices; close the period."""
        self._require_period()
        for k, leftover in enumerate(self._remaining):
            if leftover > 0:
                self._lower_price(k, leftover)
        self._in_period = False
        return QantPeriodStats(
            planned_supply=self._planned,
            accepted=list(self._accepted),
            refused=list(self._refused),
        )

    # -- price updates --------------------------------------------------------

    def _raise_price(self, class_index: int) -> None:
        values = self._price_values
        params = self._params
        old = values[class_index]
        new = old * (1.0 + params.adjustment)
        if new < params.price_floor:
            new = params.price_floor
        if new > params.price_cap:
            new = params.price_cap
        if new != old:
            values[class_index] = new
            self._prices_cache = None
            # A raise can only grow the maximum.
            if self._max_price is not None and new > self._max_price:
                self._max_price = new

    def _lower_price(self, class_index: int, leftover: float) -> None:
        # p_k -= s_ik * lambda * p_k, clamped so the price stays positive
        # even when s_ik * lambda >= 1 (large unsold surpluses).
        factor = max(0.0, 1.0 - leftover * self._params.adjustment)
        values = self._price_values
        old = values[class_index]
        new = old * factor
        if new < self._params.price_floor:
            new = self._params.price_floor
        if new != old:
            values[class_index] = new
            self._prices_cache = None
            # Lowering the current maximum invalidates it (recomputed
            # lazily on the next `max_price` read).
            if old == self._max_price:
                self._max_price = None

    # -- guards ----------------------------------------------------------------

    def _require_period(self) -> None:
        if not self._in_period:
            raise RuntimeError(
                "agent is outside a period; call begin_period() first"
            )

    def _check_class(self, class_index: int) -> None:
        if not 0 <= class_index < self.num_classes:
            raise IndexError("class index %d out of range" % class_index)
