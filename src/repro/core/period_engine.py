"""Federation-wide batched QA-NT period-boundary engine.

At paper scale the dominant cost after the PR 3 bidding-path work is the
period boundary itself: every ``period_ms`` the allocator used to walk all
N agents in Python, closing the old period (steps 12–14 price decay),
rebinding the free-capacity budget, and re-solving eq. 4 — K-element
loops times N nodes times thousands of periods.  The boundary has no
cross-agent coupling (prices are private, each seller owns its supply set)
and draws no randomness, so it batches cleanly:

* **vectorised across nodes** — the engine holds the N×K price, cost and
  credit matrices plus the free-capacity vector in numpy and computes the
  unsold-supply decay (``p_k -= s_ik λ p_k``) and the proportional /
  greedy / greedy-fractional / fractional supply solves as array ops;
* **whole** — as in the paper listing (p. 270, step 2), every boundary
  solves eq. 4 for every row: at a boundary a row's prices or its free
  capacity have almost always moved, so a plan cache keyed on them
  skipped few solves (1.5 % of rows on the 100-node Fig. 5a cell).

Bit-identity contract: the engine reproduces the scalar
:meth:`~repro.core.qant.QantPricingAgent.begin_period` /
:meth:`~repro.core.qant.QantPricingAgent.end_period` arithmetic to the
last ulp — same operations, same order, same clamps — so the golden
traces pinned in ``tests/golden/`` do not move.  The one numerically
treacherous spot is the proportional solver's ``(density/top) **
sharpness``: CPython routes ``float.__pow__`` through libm's ``pow``
while numpy rewrites an exponent of 2.0 into a multiply, and the two
differ in the last ulp for roughly 0.1% of inputs.  The weights therefore
go through a scalar Python pow loop while everything around them is
vectorised.

Prices and remaining supply are held as *lanes*, the finite-cost
``(row, class)`` cells laid out flat and class-major (``V``, ``R``, the
layout of :class:`repro.allocation.market_tick.LaneBlock` and of the
shard planes); the dense N×K price matrix is only the scatter target the
eq. 4 solve and :meth:`QantPeriodEngine.row_states` read.  A cell that
is not a lane never moves: it has no supply to decay and no bidder asks
it for an offer.

The arrays are the market state from construction to the end
(DESIGN.md §5.2): the engine is built from the fleet's cost matrix, each
boundary ticks on the arrays alone, and in between the allocator's
market-tick dispatcher prices the same ``V`` / ``R`` through a lane
block built over them.  No agent object is involved;
:meth:`QantPeriodEngine.row_states` is the one read-out, field for field
what the paper listing's agents hold.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

import numpy as np

from .qant import QantParameters
from .supply import MIN_FILL

__all__ = [
    "QantPeriodEngine",
    "unsold_decay",
]

#: Mirrors the default ``sharpness`` of
#: :meth:`repro.core.supply.CapacitySupplySet._solve_proportional`.
_PROP_SHARPNESS = 2.0


def unsold_decay(prices, remaining, adjustment, floor):
    """Steps 12-14 over arrays: prices after the unsold-supply decay.

    Every element with unsold supply decays,
    ``p_k *= max(0, 1 - leftover*lambda)`` clamped at the floor — the
    same expression (and clamp order) as the scalar
    :meth:`~repro.core.qant.QantPricingAgent._lower_price`, applied
    elementwise; the others keep their bits.  The one array spelling of
    the decay: :class:`QantPeriodEngine` and the shard market planes
    (:meth:`repro.sim.shards._MarketPlane.boundary`) both call it.
    """
    factor = 1.0 - remaining * adjustment
    np.maximum(factor, 0.0, out=factor)
    decayed = prices * factor
    np.maximum(decayed, floor, out=decayed)
    return np.where(remaining > 0.0, decayed, prices)


class QantPeriodEngine:
    """Batched period boundaries for a fleet of QA-NT sellers.

    The engine holds the market state (prices, remaining and planned
    supply, carry-over credit, free capacities) as arrays, one row per seller in fleet order, and runs
    every row's ``end_period`` → capacity rebind → ``begin_period``
    sequence on them per :meth:`advance` call.  It is built from what it
    prices: the fleet's N×K cost matrix (``inf`` where a seller cannot
    evaluate a class) and one :class:`~repro.core.qant.QantParameters`.
    Every price starts at 1.0 and every credit at zero, as a fresh
    listing agent's do.
    """

    def __init__(self, costs, parameters: QantParameters):
        costs = np.array(costs, dtype=float)
        if costs.ndim != 2 or not costs.size:
            raise ValueError("the period engine needs an N x K cost matrix")
        if not (costs > 0.0).all():
            raise ValueError(
                "per-query costs must be positive (use inf for classes "
                "a seller cannot evaluate)"
            )
        n, num_classes = costs.shape
        self._method = parameters.supply_method
        self._carry = parameters.carry_over
        self._lam = parameters.adjustment
        self._floor = parameters.price_floor
        self._costs = costs
        self._valid_cost = np.isfinite(costs)
        #: The lanes: each one's row and class (class-major, rows
        #: ascending within a class) and execution cost.
        self.lane_cols, self.lane_rows = np.nonzero(self._valid_cost.T)
        self.lane_costs = costs[self.lane_rows, self.lane_cols]
        #: Every price, lanes included as of the last `_scatter_prices`.
        self._prices = np.ones((n, num_classes))
        #: Per row, the largest price outside the lanes (those never
        #: move), 0.0 for a row without one.
        self.maxp_base = np.where(self._valid_cost.all(axis=1), 0.0, 1.0)
        #: Price and remaining supply per lane: only ever written in
        #: place, as a lane block may hold them.
        self.V = self._prices[self.lane_rows, self.lane_cols]
        self.R = np.zeros(len(self.V))
        self._credit = np.zeros((n, num_classes))
        self._planned = np.zeros((n, num_classes))
        #: Each row's free capacity at the last boundary (-1.0 before
        #: the first), as :meth:`row_states` reports it.
        self._capacity = np.full(n, -1.0)
        self._started = False

    # -- driving ------------------------------------------------------------

    def advance(self, free_capacity: Callable[[], Sequence[float]]) -> None:
        """Drive one period boundary for every row."""
        self._tick(np.asarray(free_capacity(), dtype=float))

    # -- the read-out ---------------------------------------------------------

    def row_states(self, rows) -> List[tuple]:
        """Per engine row in ``rows``, what the paper listing's agent
        would hold after the same calls: ``(prices, remaining supply,
        carry-over credit, planned supply, free capacity)``, vectors as
        tuples of floats.  The free capacity is the last boundary's (-1.0
        before the first)."""
        remaining = np.zeros_like(self._planned)
        remaining[self.lane_rows, self.lane_cols] = self.R
        return list(
            zip(
                map(tuple, self._scatter_prices()[rows].tolist()),
                map(tuple, remaining[rows].tolist()),
                map(tuple, self._credit[rows].tolist()),
                map(tuple, self._planned[rows].tolist()),
                self._capacity[rows].tolist(),
            )
        )

    # -- the dense price matrix ----------------------------------------------

    def _scatter_prices(self) -> np.ndarray:
        """The dense price matrix, brought up to date with the lanes."""
        self._prices[self.lane_rows, self.lane_cols] = self.V
        return self._prices

    # -- one full boundary ---------------------------------------------------

    def _tick(self, capacities: np.ndarray) -> None:
        # Steps 12-14 over the lanes, then eq. 4 over every row.
        if self._started:
            self.V[:] = unsold_decay(self.V, self.R, self._lam, self._floor)
        self._scatter_prices()
        optimal = self._solve_rows(capacities)
        self._capacity[:] = capacities

        # Carry-over credit arithmetic (or plain rounding), batched.  The
        # `+ 0.0` normalises a potential IEEE -0.0 from trunc/floor back
        # to the +0.0 the scalar int()/math.floor() conversions produce.
        if self._carry:
            credit = self._credit
            credit += optimal
            planned = np.trunc(credit + 1e-9) + 0.0
            credit -= planned
        else:
            planned = np.floor(optimal + 1e-9) + 0.0
        self._planned = planned
        self.R[:] = planned[self.lane_rows, self.lane_cols]
        self._started = True

    # -- batched eq. 4 -------------------------------------------------------

    def _solve_rows(self, capacities: np.ndarray) -> np.ndarray:
        """Solve eq. 4 for every row, bit-equal to the scalar solvers.

        Shared front half of every method: densities ``p_k / c_k`` for
        evaluable classes with positive prices (others pinned to -inf),
        then a stable per-row sort by (-density, k) — `np.argsort` on the
        negated matrix with ``kind="stable"`` reproduces the scalar
        tuple-sort ordering including ties.
        """
        prices = self._prices
        costs = self._costs
        cap = capacities
        valid = self._valid_cost & (prices > 0.0)
        density = np.where(valid, prices / costs, -np.inf)
        order = np.argsort(-density, axis=1, kind="stable")
        density_s = np.take_along_axis(density, order, axis=1)
        costs_s = np.take_along_axis(costs, order, axis=1)
        method = self._method
        if method == "proportional":
            counts_s = self._solve_proportional_sorted(density_s, cap, costs_s)
        elif method == "fractional":
            counts_s = np.zeros_like(density_s)
            has_any = density_s[:, 0] != -np.inf
            fill = np.where(has_any, cap / costs_s[:, 0], 0.0)
            fill[fill < MIN_FILL] = 0.0
            counts_s[:, 0] = fill
        else:  # greedy / greedy-fractional
            counts_s = self._solve_greedy_sorted(
                density_s, cap, costs_s, method == "greedy-fractional"
            )
        counts = np.zeros_like(counts_s)
        np.put_along_axis(counts, order, counts_s, axis=1)
        return counts

    def _solve_proportional_sorted(
        self, density_s: np.ndarray, cap: np.ndarray, costs_s: np.ndarray
    ) -> np.ndarray:
        """Batched `_solve_proportional` over density-sorted rows."""
        num_classes = density_s.shape[1]
        valid = density_s != -np.inf
        top = density_s[:, 0]
        # Scalar semantics: no evaluable class, or a best density that
        # underflowed to zero, supplies nothing.
        ok = top > 0.0
        safe_top = np.where(ok, top, 1.0)
        ratio = density_s / safe_top[:, None]
        weights = np.zeros_like(ratio)
        mask = valid & ok[:, None]
        flat = ratio[mask]
        if flat.size:
            # Scalar pow on purpose: see the module docstring — numpy's
            # `** 2.0` is not bit-equal to CPython's.
            sharpness = _PROP_SHARPNESS
            weights[mask] = [v ** sharpness for v in flat.tolist()]
        # `total += weight` in density order; trailing invalid columns
        # contribute an exact +0.0 so the fold matches the scalar sum.
        total = weights[:, 0].copy()
        for j in range(1, num_classes):
            total += weights[:, j]
        nonzero = total > 0.0
        share = (cap[:, None] * weights) / np.where(nonzero, total, 1.0)[
            :, None
        ]
        counts = share / costs_s
        counts[~nonzero] = 0.0
        counts[~mask] = 0.0
        # The scalar solver's fill clamp (see `supply.MIN_FILL`).
        counts[counts < MIN_FILL] = 0.0
        return counts

    def _solve_greedy_sorted(
        self,
        density_s: np.ndarray,
        cap: np.ndarray,
        costs_s: np.ndarray,
        fractional_tail: bool,
    ) -> np.ndarray:
        """Batched `_solve_greedy` over density-sorted rows.

        The column loop replicates the scalar fill order exactly: class
        columns are visited best-density first and each row's remaining
        budget updates sequentially, including the `remaining < cost`
        skip guard (masked here) that keeps a near-fitting class from
        rounding up into the budget.
        """
        num_classes = density_s.shape[1]
        valid = density_s != -np.inf
        remaining = cap.copy()
        counts = np.zeros_like(density_s)
        for j in range(num_classes):
            cost_j = costs_s[:, j]
            active = valid[:, j] & (remaining >= cost_j)
            if not active.any():
                continue
            fit = np.floor(remaining / cost_j + 1e-9)
            fit = np.where(active, fit, 0.0)
            counts[:, j] = fit
            # `fit * cost` with the cost masked to 0 on inactive rows:
            # avoids 0*inf while leaving active rows' arithmetic exact.
            remaining = remaining - fit * np.where(active, cost_j, 0.0)
        if fractional_tail:
            tail = valid[:, 0] & (remaining > 0.0)
            if tail.any():
                fill = np.where(tail, remaining / costs_s[:, 0], 0.0)
                fill[fill < MIN_FILL] = 0.0
                counts[:, 0] += fill
        return counts
