"""Property-based tests on market-level invariants (the economy)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.qant import QantParameters
from repro.core.supply import CapacitySupplySet
from repro.core.vectors import QueryVector
from repro.core.welfare import QueryMarketEconomy


class TestEconomyInvariants:
    @given(
        st.integers(1, 4),
        st.lists(st.integers(0, 4), min_size=2, max_size=2),
        st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_consumed_never_exceeds_offered(self, periods, demand, seed):
        economy = QueryMarketEconomy(
            [
                CapacitySupplySet([100.0, 200.0], 500.0),
                CapacitySupplySet([200.0, 100.0], 500.0),
            ],
            parameters=QantParameters(
                supply_method="greedy", carry_over=False
            ),
            seed=seed,
        )
        demand_vec = QueryVector(demand)
        for __ in range(periods):
            record = economy.run_period(demand_vec)
            assert record.consumed.componentwise_le(record.demand)
            # Backlog + consumed accounts for every offered query.
            assert record.consumed.total() + record.backlog.total() == (
                record.demand.total()
            )

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_feasible_constant_demand_is_eventually_served(self, seed):
        economy = QueryMarketEconomy(
            [CapacitySupplySet([100.0, 100.0], 500.0)],
            parameters=QantParameters(
                supply_method="greedy", carry_over=False
            ),
            seed=seed,
        )
        demand = QueryVector([1, 1])  # trivially within one node's period
        served_totals = [
            economy.run_period(demand).consumed.total() for __ in range(10)
        ]
        # After warm-up the single node serves the full demand each period.
        assert served_totals[-1] >= 2.0
