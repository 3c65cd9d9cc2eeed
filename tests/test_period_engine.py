"""Equivalence tests for the batched period engine.

The engine (:mod:`repro.core.period_engine`) re-implements the QA-NT
period boundary — steps 12–14 decay, capacity rebind, eq. 4 solve,
carry-over credit — as batched numpy over all agents.  Its contract is
*bit-identity* with the scalar per-agent loop it replaced, so the main
test here is a twin race: a fleet of listing agents driven by the scalar
``end_period``/rebind/``begin_period`` sequence, and an engine built
from the same cost rows driven by ``engine.advance``, interleaved with
the same mid-period interactions (quotes, refusal price raises,
accepts) — on the listing agents for the first, through a ``LaneBlock``
over the engine's lanes for the second, as ``QantAllocator`` prices
them — asserting every field the agents hold equals the engine's
read-out exactly (``==``) after every boundary and every burst.  Any
drift is a golden-trace bug waiting to happen.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocation.market_tick import LaneBlock
from repro.core.period_engine import QantPeriodEngine, unsold_decay
from repro.core.qant import QantParameters, QantPricingAgent
from repro.core.supply import SUPPLY_METHODS, CapacitySupplySet

METHODS = sorted(SUPPLY_METHODS)


def _make_fleet(rng, num_agents, num_classes, method, carry):
    """One fleet of agents over varied cost rows (some inf = can't serve)."""
    params = QantParameters(supply_method=method, carry_over=carry)
    agents = []
    for __ in range(num_agents):
        costs = [
            math.inf if rng.random() < 0.25 else rng.uniform(40.0, 900.0)
            for __ in range(num_classes)
        ]
        if all(math.isinf(c) for c in costs):
            costs[0] = rng.uniform(40.0, 900.0)
        agents.append(
            QantPricingAgent(CapacitySupplySet(costs, 2_000.0), params)
        )
    return agents


def _twin_fleets(
    seed, num_agents, num_classes, method, carry, threshold=None
):
    """The listing agents, and the array twin built from their cost rows."""
    rng = random.Random(seed)
    reference = _make_fleet(rng, num_agents, num_classes, method, carry)
    costs = [agent.supply_set.cost_ms for agent in reference]
    return reference, _Arrays(costs, reference[0].parameters, threshold)


def _scalar_boundary(agents, capacities):
    """The per-agent sequence `QantAllocator.on_period_start` batches."""
    for agent, capacity in zip(agents, capacities):
        if agent.in_period:
            agent.end_period()
        agent.rebind_supply_set(
            CapacitySupplySet(agent.supply_set.cost_ms, capacity)
        )
        agent.begin_period()


class _Arrays:
    """The batched twin: a period engine over the agents' cost rows, with
    mid-period traffic priced by a lane block over its lanes at one
    activation ``threshold``, as ``QantAllocator`` holds them."""

    def __init__(self, costs, params, threshold=None):
        self.threshold = threshold
        self.engine = engine = QantPeriodEngine(costs, params)
        self.block = LaneBlock(
            engine.V, engine.R, engine.lane_rows, engine.lane_cols,
            engine.lane_costs, np.zeros(len(costs)), engine.maxp_base,
            1.0 + params.adjustment, params.price_floor, params.price_cap,
            threshold,
        )

    def advance(self, capacities):
        self.engine.advance(lambda: capacities)
        self.block.rearm()

    def quote_accept(self, idx, class_index):
        """One request-for-bid reaching agent ``idx`` alone: whether it
        offered (and so won, paying a unit if it had one)."""
        reached = self.block.members[class_index] == idx
        row, __, __ = self.block.exchange(class_index, 0.0, reached)
        return row == idx

    def state(self):
        """Per row, the engine's read-out and this period's latch, as
        ``QantAllocator.market_state`` gives them."""
        rows = np.arange(len(self.block.locked))
        return [
            (*state, self.threshold if latch else None)
            for state, latch in zip(
                self.engine.row_states(rows), self.block.locked.tolist()
            )
        ]


def _assert_state_equal(reference, arrays):
    """Every field the listing agents hold must match bit-for-bit."""
    for i, (ref, state) in enumerate(zip(reference, arrays.state())):
        where = "agent %d" % i
        prices, remaining, credit, planned, capacity, latch = state
        assert list(prices) == ref._price_values, where
        assert list(remaining) == ref._remaining, where
        assert list(credit) == ref._credit, where
        assert ref.in_period, where
        assert latch == ref._enforce_locked_at, where
        assert planned == ref.planned_supply.components, where
        assert capacity == ref.supply_set.capacity_ms, where
        # The listing's incrementally kept views agree with the arrays.
        assert max(prices) == ref.max_price, where
        assert prices == ref.prices.values, where


def _interact(rng, reference, arrays):
    """Apply one identical burst of market traffic to both twins: each
    request goes to one random bidder of one of its classes."""
    lanes = list(zip(arrays.engine.lane_rows, arrays.engine.lane_cols))
    for __ in range(rng.randrange(0, 12)):
        idx, class_index = map(int, rng.choice(lanes))
        ref_offer = reference[idx].quote(class_index, arrays.threshold)
        assert arrays.quote_accept(idx, class_index) == ref_offer
        if ref_offer and reference[idx].supply_left(class_index) >= 1.0:
            reference[idx].accept(class_index)


class TestScalarEquivalence:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("carry", [True, False])
    def test_boundary_race_stays_bit_identical(self, method, carry):
        """40 boundaries with random traffic and shifting free capacity,
        with supply always enforced and under an activation threshold
        low enough (two raises above the initial 1.0) to latch agents."""
        num_classes = 5
        for threshold in (None, 1.2):
            reference, arrays = _twin_fleets(
                1234, 8, num_classes, method, carry, threshold
            )
            rng = random.Random(99)
            for __ in range(40):
                capacities = [
                    rng.choice(
                        [0.0, 150.0, 2_000.0, rng.uniform(0.0, 2_000.0)]
                    )
                    for __ in range(8)
                ]
                _scalar_boundary(reference, capacities)
                arrays.advance(capacities)
                _assert_state_equal(reference, arrays)
                _interact(rng, reference, arrays)
                _assert_state_equal(reference, arrays)

    @pytest.mark.parametrize("method", METHODS)
    def test_quiet_ticks_without_gather_stay_identical(self, method):
        """Idle boundaries (no traffic in between) must not drift, through
        the decay to the price floor and the carry-over credit cycle: past
        the floor a row's prices and free capacity stop moving, and every
        boundary still solves it afresh."""
        reference, arrays = _twin_fleets(55, 6, 4, method, True)
        capacities = [2_000.0] * 6
        arrays.advance(capacities)
        _scalar_boundary(reference, capacities)
        # Geometric decay reaches the floor after ~120 idle boundaries;
        # past it only the carry-over credit cycles.
        for __ in range(160):
            _scalar_boundary(reference, capacities)
            arrays.advance(capacities)
            _assert_state_equal(reference, arrays)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("carry", [True, False])
    def test_denormal_capacities_stay_bit_identical(self, method, carry):
        """Subnormal budgets hit the solvers' fill clamp (a quotient of
        denormals may not round up past its budget) on both sides."""
        reference, arrays = _twin_fleets(77, 6, 3, method, carry)
        schedule = [
            [5e-324, 1e-323, 2.5e-308, 1e-300, 0.0, 2_000.0],
            [1e-323, 5e-324, 5e-324, 2_000.0, 1e-310, 150.0],
        ]
        for tick in range(6):
            capacities = schedule[tick % 2]
            _scalar_boundary(reference, capacities)
            arrays.advance(capacities)
            _assert_state_equal(reference, arrays)

    def test_single_agent_single_class(self):
        reference, arrays = _twin_fleets(7, 1, 1, "proportional", True)
        for tick in range(10):
            capacities = [2_000.0 if tick % 2 else 70.0]
            _scalar_boundary(reference, capacities)
            arrays.advance(capacities)
            _assert_state_equal(reference, arrays)


class TestConstruction:
    def test_starts_where_a_fresh_listing_agent_does(self):
        params = QantParameters()
        costs = [[100.0, math.inf], [50.0, 70.0]]
        engine = QantPeriodEngine(costs, params)
        agents = [
            QantPricingAgent(CapacitySupplySet(row, 1_000.0), params)
            for row in costs
        ]
        for (prices, __, credit, planned, __), agent in zip(
            engine.row_states([0, 1]), agents
        ):
            assert prices == agent.prices.values
            assert list(credit) == agent._credit
            assert planned == agent.planned_supply.components
        # Row 0's class-1 cell is not a lane: its price stays at 1.0.
        assert engine.maxp_base.tolist() == [1.0, 0.0]

    @pytest.mark.parametrize(
        "costs",
        [[], [1.0, 2.0], [[0.0, 1.0]], [[-1.0]], [[math.nan, 1.0]]],
    )
    def test_refuses_what_is_not_a_cost_matrix(self, costs):
        with pytest.raises(ValueError):
            QantPeriodEngine(costs, QantParameters())


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=1e-6, max_value=1e9),
            # Up to 50 unsold queries: `leftover * lambda >= 1` included.
            st.integers(min_value=0, max_value=50),
        ),
        min_size=1,
        max_size=8,
    ),
    st.sampled_from([0.01, 0.1, 0.5]),
)
def test_unsold_decay_matches_the_paper_listing(cells, adjustment):
    # The array steps 12-14 against the scalar `_lower_price`, class by
    # class: equal bits.
    prices = [price for price, __ in cells]
    leftover = [float(count) for __, count in cells]
    params = QantParameters(adjustment=adjustment)
    decayed = unsold_decay(
        np.array(prices), np.array(leftover), adjustment, params.price_floor
    )
    for k, (price, unsold) in enumerate(zip(prices, leftover)):
        agent = QantPricingAgent(
            CapacitySupplySet([100.0], 1_000.0), parameters=params
        )
        agent._price_values[0] = price
        if unsold > 0:
            agent._lower_price(0, unsold)
        assert agent._price_values[0].hex() == float(decayed[k]).hex()
