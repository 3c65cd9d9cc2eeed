"""Market tracing: record per-period prices and supply plans per node.

The virtual prices are the mechanism's internal overload signal (Section
5.1: "query prices are high" when the system is overloaded), so observing
them is the main debugging and monitoring tool a deployment would have.
:class:`MarketTracer` attaches to a :class:`~repro.allocation.qant.
QantAllocator` and snapshots every adopter's prices and planned supply
at each period boundary, through ``QantAllocator.market_rows()``, which
reads the period engine's arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..allocation.qant import QantAllocator

__all__ = [
    "MarketSnapshot",
    "MarketTracer",
]


@dataclass(frozen=True)
class MarketSnapshot:
    """One node's market state at one period boundary."""

    time_ms: float
    node_id: int
    prices: Tuple[float, ...]
    planned_supply: Tuple[float, ...]

    @property
    def max_price(self) -> float:
        """The node's highest price — its local overload signal."""
        return max(self.prices)


class MarketTracer:
    """Snapshots a QA-NT allocator's agents at every period boundary.

    Wraps the allocator's ``on_period_start`` hook; attach *before*
    binding the allocator to a federation::

        allocator = QantAllocator()
        tracer = MarketTracer(allocator)
        federation = build_federation(..., allocator, ...)
        federation.run(trace)
        tracer.price_series(node_id=3)
    """

    def __init__(self, allocator: QantAllocator):
        self._allocator = allocator
        self._snapshots: List[MarketSnapshot] = []
        original = allocator.on_period_start

        def traced() -> None:
            original()
            self._record()

        allocator.on_period_start = traced  # type: ignore[method-assign]

    @property
    def snapshots(self) -> List[MarketSnapshot]:
        """All snapshots in chronological order."""
        return self._snapshots

    def _record(self) -> None:
        allocator = self._allocator
        now = allocator.context.simulator.now
        self._snapshots.extend(
            MarketSnapshot(
                time_ms=now,
                node_id=node_id,
                prices=prices,
                planned_supply=planned,
            )
            for node_id, prices, planned in allocator.market_rows()
        )

    def price_series(
        self, node_id: int, class_index: Optional[int] = None
    ) -> List[Tuple[float, float]]:
        """(time, price) pairs for one node.

        ``class_index`` picks one class; omitted, the node's max price
        (the overload signal) is reported.
        """
        series = []
        for snap in self._snapshots:
            if snap.node_id != node_id:
                continue
            value = (
                snap.max_price
                if class_index is None
                else snap.prices[class_index]
            )
            series.append((snap.time_ms, value))
        return series

    def overload_periods(self, threshold: float) -> List[float]:
        """Times at which *any* node's max price exceeded ``threshold``.

        This is the decentralised overload detector the paper describes:
        high prices mean the system cannot serve what is being asked.
        """
        times = sorted(
            {
                snap.time_ms
                for snap in self._snapshots
                if snap.max_price >= threshold
            }
        )
        return times

    def supply_totals(self, node_id: int) -> List[Tuple[float, float]]:
        """(time, total planned supply) pairs for one node."""
        return [
            (snap.time_ms, sum(snap.planned_supply))
            for snap in self._snapshots
            if snap.node_id == node_id
        ]
