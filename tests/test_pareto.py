"""Unit tests for repro.core.pareto (Definition 1 machinery)."""

import pytest

from repro.core.pareto import (
    Allocation,
    enumerate_allocations,
    is_pareto_optimal,
    pareto_dominates,
)
from repro.core.supply import ExplicitSupplySet
from repro.core.vectors import QueryVector, aggregate


def alloc(*consumptions):
    """Allocation with supplies mirroring consumptions (clearing trivially)."""
    vectors = [QueryVector(c) for c in consumptions]
    return Allocation(supplies=tuple(vectors), consumptions=tuple(vectors))


class TestAllocation:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            Allocation(
                supplies=(QueryVector([1]),),
                consumptions=(QueryVector([1]), QueryVector([1])),
            )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Allocation(supplies=(), consumptions=())


class TestDominance:
    def test_dominates_when_one_node_strictly_better(self):
        better = alloc((2, 0), (1, 0))
        worse = alloc((1, 0), (1, 0))
        assert pareto_dominates(better, worse)

    def test_no_domination_when_tradeoff(self):
        a = alloc((2, 0), (0, 0))
        b = alloc((0, 0), (2, 0))
        assert not pareto_dominates(a, b)
        assert not pareto_dominates(b, a)

    def test_equal_allocations_do_not_dominate(self):
        a = alloc((1, 1))
        assert not pareto_dominates(a, alloc((1, 1)))

    def test_node_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pareto_dominates(alloc((1,)), alloc((1,), (1,)))


class TestFrontAndOptimality:
    def test_is_pareto_optimal_against_alternatives(self):
        candidate = alloc((2, 0), (1, 0))
        alternatives = [candidate, alloc((1, 0), (1, 0)), alloc((2, 0), (0, 0))]
        assert is_pareto_optimal(candidate, alternatives)
        assert not is_pareto_optimal(alloc((1, 0), (1, 0)), alternatives)


class TestEnumeration:
    def test_enumerates_only_feasible_clearing_allocations(self):
        demands = [QueryVector([1, 1]), QueryVector([1, 0])]
        supply_sets = [
            ExplicitSupplySet([QueryVector([1, 0]), QueryVector([0, 1])]),
            ExplicitSupplySet([QueryVector([1, 0])]),
        ]
        allocations = enumerate_allocations(demands, supply_sets)
        assert allocations  # non-empty
        total_demand = QueryVector([2, 1])
        for allocation in allocations:
            supplied = aggregate(allocation.supplies)
            assert supplied == aggregate(allocation.consumptions)
            assert supplied.componentwise_le(total_demand)
            assert all(
                c.componentwise_le(d)
                for c, d in zip(allocation.consumptions, demands)
            )

    def test_supply_exceeding_demand_excluded(self):
        demands = [QueryVector([0, 0])]
        supply_sets = [ExplicitSupplySet([QueryVector([1, 0])])]
        allocations = enumerate_allocations(demands, supply_sets)
        # Only the zero supply vector survives.
        assert all(aggregate(a.supplies).is_zero() for a in allocations)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            enumerate_allocations(
                [QueryVector([1])],
                [
                    ExplicitSupplySet([QueryVector([1])]),
                    ExplicitSupplySet([QueryVector([1])]),
                ],
            )
