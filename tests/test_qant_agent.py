"""Unit tests for repro.core.qant (the QA-NT pricing agent)."""

import math

import pytest

from repro.core.market import PriceVector
from repro.core.qant import (
    DEFAULT_ALLOWANCE_FACTOR,
    QantParameters,
    QantPricingAgent,
    backlog_allowance_ms,
)
from repro.core.supply import CapacitySupplySet
from repro.core.vectors import QueryVector


def make_agent(costs=(100.0, 200.0), capacity=1000.0, **params):
    defaults = dict(supply_method="greedy", carry_over=False)
    defaults.update(params)
    return QantPricingAgent(
        CapacitySupplySet(list(costs), capacity),
        parameters=QantParameters(**defaults),
    )


class TestParameters:
    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            QantParameters(adjustment=0.0)

    def test_rejects_bad_floor(self):
        with pytest.raises(ValueError):
            QantParameters(price_floor=0.0)

    def test_rejects_cap_below_floor(self):
        with pytest.raises(ValueError):
            QantParameters(price_floor=1.0, price_cap=0.5)

    def test_rejects_unknown_supply_method(self):
        # A typo must fail here, not solve as some other method later.
        with pytest.raises(ValueError, match="'greedy_fractional'"):
            QantParameters(supply_method="greedy_fractional")


class TestPeriodLifecycle:
    def test_begin_period_plans_supply(self):
        agent = make_agent()
        planned = agent.begin_period()
        # Uniform prices, class 0 denser: all capacity there.
        assert planned == QueryVector([10, 0])
        assert agent.remaining_supply == (10.0, 0.0)

    def test_cannot_act_outside_period(self):
        agent = make_agent()
        with pytest.raises(RuntimeError):
            agent.would_offer(0)
        with pytest.raises(RuntimeError):
            agent.accept(0)
        with pytest.raises(RuntimeError):
            agent.end_period()

    def test_in_period_flag(self):
        agent = make_agent()
        assert not agent.in_period
        agent.begin_period()
        assert agent.in_period
        agent.end_period()
        assert not agent.in_period

    def test_offer_and_accept_consume_supply(self):
        agent = make_agent()
        agent.begin_period()
        assert agent.would_offer(0)
        agent.accept(0)
        assert agent.remaining_supply[0] == 9.0

    def test_accept_without_supply_rejected(self):
        agent = make_agent()
        agent.begin_period()
        with pytest.raises(RuntimeError):
            agent.accept(1)  # no class-1 supply planned

    def test_class_index_bounds(self):
        agent = make_agent()
        agent.begin_period()
        with pytest.raises(IndexError):
            agent.would_offer(5)

    def test_quote_rejects_out_of_range_classes(self):
        # A negative index must not wrap around to the last class and
        # silently refuse-and-raise it.
        agent = make_agent(capacity=0.0)
        agent.begin_period()
        before = tuple(agent.prices)
        for class_index in (-1, 2):
            with pytest.raises(IndexError):
                agent.quote(class_index)
        assert tuple(agent.prices) == before


class TestPriceDynamics:
    def test_refusal_raises_price(self):
        agent = make_agent()
        agent.begin_period()
        before = agent.prices[1]
        assert not agent.would_offer(1)  # class 1 unplanned -> refusal
        assert agent.prices[1] == pytest.approx(before * 1.1)

    def test_offer_does_not_change_price(self):
        agent = make_agent()
        agent.begin_period()
        before = agent.prices.values
        agent.would_offer(0)
        assert agent.prices.values == before

    def test_unsold_supply_lowers_price(self):
        agent = make_agent()
        agent.begin_period()  # plans 10 of class 0
        stats = agent.end_period()
        # p0 -= 10 * 0.1 * p0 -> clamped at (1 - 1.0) = floor.
        assert agent.prices[0] == pytest.approx(
            QantParameters().price_floor
        )
        assert stats.planned_supply == QueryVector([10, 0])

    def test_partial_sale_lowers_price_proportionally(self):
        agent = make_agent(capacity=300.0)  # plans 3 of class 0
        agent.begin_period()
        agent.would_offer(0)
        agent.accept(0)
        agent.end_period()
        # leftover 2: p0 *= (1 - 2*0.1) = 0.8
        assert agent.prices[0] == pytest.approx(0.8)

    def test_fully_sold_class_price_untouched(self):
        agent = make_agent(capacity=100.0)  # plans exactly 1 of class 0
        agent.begin_period()
        agent.accept(0)
        agent.end_period()
        assert agent.prices[0] == pytest.approx(1.0)

    def test_price_floor_enforced(self):
        agent = make_agent()
        for __ in range(50):
            agent.begin_period()
            agent.end_period()
        assert agent.prices[0] >= QantParameters().price_floor

    def test_price_cap_enforced(self):
        agent = make_agent(
            costs=(100.0,), capacity=0.0, price_cap=2.0, adjustment=0.5
        )
        for __ in range(20):
            agent.begin_period()
            agent.would_offer(0)
            agent.end_period()
        assert agent.prices[0] <= 2.0

    def test_rising_price_flips_supply_class(self):
        # Class 1 is denser at equal prices; sustained refusals of class 0
        # must eventually flip the plan (the market mechanism in miniature).
        agent = make_agent(costs=(200.0, 100.0), capacity=1000.0)
        agent.begin_period()
        assert agent.planned_supply == QueryVector([0, 10])
        for __ in range(30):
            agent.would_offer(0)  # refusals raise p0
            agent.end_period()
            agent.begin_period()
            if agent.planned_supply[0] > 0:
                break
        assert agent.planned_supply[0] > 0


class TestCarryOver:
    def test_fraction_accumulates_into_whole_queries(self):
        # Cost 1000 with budget 500: fractional supply 0.5/period.
        agent = QantPricingAgent(
            CapacitySupplySet([1000.0], 500.0),
            parameters=QantParameters(
                supply_method="greedy-fractional", carry_over=True
            ),
        )
        planned_totals = []
        for __ in range(4):
            planned = agent.begin_period()
            planned_totals.append(planned.total())
            agent.end_period()
        # 0.5 credit per period -> a whole query every second period.
        assert sum(planned_totals) == 2.0

    def test_without_carry_fraction_is_floored_away(self):
        agent = QantPricingAgent(
            CapacitySupplySet([1000.0], 500.0),
            parameters=QantParameters(
                supply_method="greedy-fractional", carry_over=False
            ),
        )
        for __ in range(4):
            assert agent.begin_period().is_zero()
            agent.end_period()


class TestSupplySetRebinding:
    def test_rebind_between_periods(self):
        agent = make_agent()
        agent.begin_period()
        agent.end_period()  # 10 unsold class-0 -> p0 collapses to the floor
        agent.rebind_supply_set(CapacitySupplySet([100.0, 200.0], 200.0))
        # With p0 at the floor the new plan goes to class 1 on the smaller
        # budget: one 200 ms query.
        assert agent.begin_period() == QueryVector([0, 1])

    def test_rebind_mid_period_rejected(self):
        agent = make_agent()
        agent.begin_period()
        with pytest.raises(RuntimeError):
            agent.rebind_supply_set(CapacitySupplySet([100.0, 200.0], 200.0))

    def test_rebind_wrong_classes_rejected(self):
        agent = make_agent()
        with pytest.raises(ValueError):
            agent.rebind_supply_set(CapacitySupplySet([100.0], 200.0))


class TestRunPeriod:
    def test_run_period_counts_stats(self):
        agent = make_agent(capacity=300.0)
        agent.begin_period()
        for class_index in [0, 0, 0, 0, 1]:
            if agent.would_offer(class_index):
                agent.accept(class_index)
        stats = agent.end_period()
        assert stats.total_accepted == 3
        assert stats.total_refused == 2
        assert stats.accepted == [3, 0]
        assert stats.refused == [1, 1]

    def test_initial_prices_respected(self):
        agent = QantPricingAgent(
            CapacitySupplySet([100.0, 100.0], 100.0),
            parameters=QantParameters(
                supply_method="greedy", carry_over=False
            ),
            initial_prices=PriceVector([0.1, 5.0]),
        )
        planned = agent.begin_period()
        assert planned == QueryVector([0, 1])

    def test_wrong_initial_price_length_rejected(self):
        with pytest.raises(ValueError):
            QantPricingAgent(
                CapacitySupplySet([100.0, 100.0], 100.0),
                initial_prices=PriceVector([1.0]),
            )


class TestBacklogAllowance:
    def test_period_plus_factor_times_largest_finite_cost(self):
        costs = [100.0, math.inf, 300.0]
        assert backlog_allowance_ms(500.0, costs) == (
            500.0 + DEFAULT_ALLOWANCE_FACTOR * 300.0
        )

    @pytest.mark.parametrize("costs", [[], [math.inf, math.inf]])
    def test_a_node_that_evaluates_nothing_gets_one_period(self, costs):
        assert backlog_allowance_ms(500.0, costs) == 500.0
