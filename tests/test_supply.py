"""Unit tests for repro.core.supply (supply sets and eq. 4 solvers)."""


import pytest

from repro.core.supply import (
    CapacitySupplySet,
    ExplicitSupplySet,
    solve_supply,
)
from repro.core.vectors import QueryVector

INF = float("inf")


class TestExplicitSupplySet:
    def test_contains(self):
        s = ExplicitSupplySet([QueryVector([1, 0])])
        assert s.contains(QueryVector([1, 0]))
        assert not s.contains(QueryVector([0, 2]))

    def test_zero_vector_always_member(self):
        s = ExplicitSupplySet([QueryVector([1, 0])])
        assert s.contains(QueryVector([0, 0]))

    def test_optimal_supply_picks_max_value(self):
        s = ExplicitSupplySet(
            [QueryVector([1, 0]), QueryVector([0, 1]), QueryVector([1, 1])]
        )
        assert s.optimal_supply([3.0, 1.0]) == QueryVector([1, 1])

    def test_optimal_supply_tie_breaks_by_total(self):
        s = ExplicitSupplySet([QueryVector([1, 0]), QueryVector([1, 1])])
        # Class 1 has zero price; picking the larger vector is harmless
        # and maximises throughput.
        assert s.optimal_supply([1.0, 0.0]) == QueryVector([1, 1])

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError):
            ExplicitSupplySet([QueryVector([1]), QueryVector([1, 2])])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ExplicitSupplySet([])

    def test_price_length_check(self):
        s = ExplicitSupplySet([QueryVector([1, 0])])
        with pytest.raises(ValueError):
            s.optimal_supply([1.0])

    def test_can_supply(self):
        s = ExplicitSupplySet([QueryVector([1, 0])])
        assert s.can_supply(0)
        assert not s.can_supply(1)


class TestCapacitySupplySetFeasibility:
    def test_contains_respects_budget(self):
        s = CapacitySupplySet([100.0, 200.0], 500.0)
        assert s.contains(QueryVector([3, 1]))   # 500 exactly
        assert not s.contains(QueryVector([4, 1]))  # 600

    def test_infeasible_class(self):
        s = CapacitySupplySet([100.0, INF], 500.0)
        assert not s.contains(QueryVector([0, 1]))
        assert s.contains(QueryVector([5, 0]))

    def test_wrong_length_not_contained(self):
        s = CapacitySupplySet([100.0], 500.0)
        assert not s.contains(QueryVector([1, 1]))

    def test_zero_capacity_contains_only_zero(self):
        s = CapacitySupplySet([100.0], 0.0)
        assert s.contains(QueryVector([0]))
        assert not s.contains(QueryVector([1]))

    def test_utilisation(self):
        s = CapacitySupplySet([100.0, 200.0], 1000.0)
        assert s.utilisation(QueryVector([2, 1])) == pytest.approx(0.4)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            CapacitySupplySet([100.0], -1.0)

    def test_nonpositive_cost_rejected(self):
        with pytest.raises(ValueError):
            CapacitySupplySet([0.0], 100.0)

    def test_can_supply_uses_idle_budget(self):
        s = CapacitySupplySet([100.0, 600.0], 500.0)
        assert s.can_supply(0)
        assert not s.can_supply(1)  # one query does not fit the budget


class TestSolvers:
    def test_greedy_prefers_best_density(self):
        s = CapacitySupplySet([100.0, 100.0], 500.0)
        result = s.optimal_supply([2.0, 1.0], method="greedy")
        assert result == QueryVector([5, 0])

    def test_greedy_fills_leftover_with_next_class(self):
        s = CapacitySupplySet([300.0, 100.0], 500.0)
        # Density: class0 = 10/300, class1 = 1/100 -> class0 first (1 fits),
        # leftover 200 takes 2 of class1.
        result = s.optimal_supply([10.0, 1.0], method="greedy")
        assert result == QueryVector([1, 2])

    def test_greedy_ignores_zero_priced_classes(self):
        s = CapacitySupplySet([100.0, 100.0], 500.0)
        assert s.optimal_supply([0.0, 1.0], method="greedy") == QueryVector([0, 5])

    def test_greedy_all_zero_prices(self):
        s = CapacitySupplySet([100.0], 500.0)
        assert s.optimal_supply([0.0], method="greedy").is_zero()

    def test_fractional_uses_full_capacity_on_best_class(self):
        s = CapacitySupplySet([200.0, 100.0], 500.0)
        result = s.optimal_supply([1.0, 1.0], method="fractional")
        assert result == QueryVector([0, 5])

    def test_fractional_allows_fractions(self):
        s = CapacitySupplySet([1000.0], 500.0)
        result = s.optimal_supply([1.0], method="fractional")
        assert result.components == (0.5,)

    def test_greedy_fractional_tail(self):
        s = CapacitySupplySet([1000.0], 500.0)
        result = s.optimal_supply([1.0], method="greedy-fractional")
        assert result.components == (0.5,)

    def test_greedy_fractional_integer_part_plus_tail(self):
        s = CapacitySupplySet([200.0], 500.0)
        result = s.optimal_supply([1.0], method="greedy-fractional")
        assert result.components == (2.5,)

    def test_proportional_splits_by_density(self):
        s = CapacitySupplySet([100.0, 100.0], 400.0)
        result = s.optimal_supply([1.0, 1.0], method="proportional")
        # Equal densities -> equal shares.
        assert result.components == pytest.approx((2.0, 2.0))

    def test_proportional_concentrates_on_better_class(self):
        s = CapacitySupplySet([100.0, 100.0], 400.0)
        result = s.optimal_supply([2.0, 1.0], method="proportional")
        assert result[0] > result[1] > 0

    def test_proportional_feasible(self):
        s = CapacitySupplySet([130.0, 270.0, 90.0], 700.0)
        result = s.optimal_supply([1.0, 2.0, 0.5], method="proportional")
        assert s.utilisation(result) <= 1.0 + 1e-9

    def test_unknown_method_rejected(self):
        s = CapacitySupplySet([100.0], 500.0)
        with pytest.raises(ValueError):
            s.optimal_supply([1.0], method="magic")

    def test_negative_prices_rejected(self):
        s = CapacitySupplySet([100.0], 500.0)
        with pytest.raises(ValueError):
            s.optimal_supply([-1.0])

    def test_solve_supply_dispatches_explicit(self):
        s = ExplicitSupplySet([QueryVector([1, 0]), QueryVector([0, 1])])
        assert solve_supply(s, [1.0, 5.0]) == QueryVector([0, 1])

    def test_solve_supply_dispatches_capacity(self):
        s = CapacitySupplySet([100.0, 100.0], 200.0)
        assert solve_supply(s, [1.0, 3.0], method="greedy") == QueryVector([0, 2])
