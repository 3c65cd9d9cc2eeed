"""Property-based tests (hypothesis) on core data structures and invariants."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.market import PriceVector, excess_demand
from repro.core.pareto import pareto_dominates
from repro.core.supply import SUPPLY_METHODS, CapacitySupplySet
from repro.core.vectors import QueryVector, aggregate
from repro.sim.engine import Simulator
from repro.workload.zipf import TruncatedZipf, ZipfArrivals

counts = st.lists(
    st.integers(min_value=0, max_value=50), min_size=1, max_size=6
)
paired_counts = st.integers(min_value=1, max_value=6).flatmap(
    lambda k: st.tuples(
        st.lists(st.integers(0, 50), min_size=k, max_size=k),
        st.lists(st.integers(0, 50), min_size=k, max_size=k),
    )
)
def prices_for(k):
    return st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=k,
        max_size=k,
    )


class TestVectorAlgebra:
    @given(paired_counts)
    def test_addition_commutes(self, pair):
        a, b = QueryVector(pair[0]), QueryVector(pair[1])
        assert a + b == b + a

    @given(paired_counts)
    def test_subtraction_never_negative(self, pair):
        a, b = QueryVector(pair[0]), QueryVector(pair[1])
        assert all(x >= 0 for x in (a - b).components)

    @given(paired_counts)
    def test_signed_difference_antisymmetric(self, pair):
        a, b = QueryVector(pair[0]), QueryVector(pair[1])
        forward = a.signed_difference(b)
        backward = b.signed_difference(a)
        assert all(x == -y for x, y in zip(forward, backward))

    @given(counts)
    def test_total_equals_dot_with_ones(self, values):
        v = QueryVector(values)
        assert v.total() == v.dot([1.0] * len(v))

    @given(paired_counts)
    def test_dominance_is_asymmetric(self, pair):
        a, b = QueryVector(pair[0]), QueryVector(pair[1])
        if a.dominates(b):
            assert not b.dominates(a)

    @given(st.lists(counts.filter(lambda c: len(c) == 3), min_size=1, max_size=5))
    def test_aggregate_total_is_sum_of_totals(self, groups):
        vectors = [QueryVector(g) for g in groups]
        assert aggregate(vectors).total() == sum(v.total() for v in vectors)


class TestSupplyInvariants:
    supply_cases = st.tuples(
        st.lists(
            st.floats(min_value=1.0, max_value=1000.0, allow_nan=False),
            min_size=1,
            max_size=5,
        ),
        st.floats(min_value=0.0, max_value=5000.0, allow_nan=False),
    )

    # The same draws as `supply_cases` + `data.draw(prices_for(k))`, as
    # one strategy, so explicit examples can be pinned (`st.data()`
    # cannot take them).
    priced_supply_cases = supply_cases.flatmap(
        lambda case: st.tuples(st.just(case), prices_for(len(case[0])))
    )

    @given(priced_supply_cases)
    # Subnormal budgets: a fractional fill of a whole denormal used to
    # overshoot the capacity it was cut from (utilisation 2.0 and 1.5).
    @example((([1.5], 5e-324), [1.0]))
    @example((([3.0], 1e-323), [1.0]))
    @settings(max_examples=60)
    def test_all_solvers_return_feasible_supply(self, priced_case):
        (costs, capacity), prices = priced_case
        supply_set = CapacitySupplySet(costs, capacity)
        for method in SUPPLY_METHODS:
            result = supply_set.optimal_supply(prices, method=method)
            assert supply_set.utilisation(result) <= 1.0 + 1e-6

    @given(supply_cases, st.data())
    @settings(max_examples=60)
    def test_fractional_upper_bounds_integer_value(self, case, data):
        costs, capacity = case
        supply_set = CapacitySupplySet(costs, capacity)
        prices = data.draw(prices_for(len(costs)))
        fractional = supply_set.optimal_supply(prices, method="fractional")
        greedy = supply_set.optimal_supply(prices, method="greedy")
        assert fractional.dot(prices) >= greedy.dot(prices) - 1e-6

    @given(supply_cases, st.data())
    @settings(max_examples=60)
    def test_zero_prices_zero_supply(self, case, data):
        costs, capacity = case
        supply_set = CapacitySupplySet(costs, capacity)
        result = supply_set.optimal_supply([0.0] * len(costs), method="greedy")
        assert result.is_zero()


class TestMarketInvariants:
    @given(paired_counts)
    def test_excess_demand_zero_iff_equal(self, pair):
        d, s = QueryVector(pair[0]), QueryVector(pair[1])
        z = excess_demand(d, s)
        assert (all(x == 0 for x in z)) == (d == s)

    @given(
        st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=5),
        st.integers(min_value=0, max_value=4),
        st.floats(min_value=0.1, max_value=3.0),
    )
    def test_scaled_class_changes_only_that_class(self, values, index, factor):
        p = PriceVector(values)
        index = index % len(values)
        scaled = p.scaled_class(index, factor)
        for k in range(len(values)):
            if k != index:
                assert scaled[k] == p[k]

    @given(paired_counts)
    def test_pareto_dominance_irreflexive(self, pair):
        from repro.core.pareto import Allocation

        consumptions = (QueryVector(pair[0]), QueryVector(pair[1]))
        allocation = Allocation(supplies=consumptions, consumptions=consumptions)
        assert not pareto_dominates(allocation, allocation)


class TestEngineInvariants:
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
            min_size=1,
            max_size=30,
        )
    )
    def test_events_fire_in_nondecreasing_time_order(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=20,
        ),
        st.floats(min_value=0.0, max_value=120.0, allow_nan=False),
    )
    def test_bounded_run_never_overshoots(self, delays, bound):
        sim = Simulator()
        for delay in delays:
            sim.schedule(delay, lambda: None)
        sim.run(until_ms=bound)
        assert sim.now <= max(bound, 0.0) + 1e-9


class TestWorkloadInvariants:
    @given(
        st.floats(min_value=1.0, max_value=3.0),
        st.integers(min_value=2, max_value=500),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=40)
    def test_zipf_samples_in_support(self, a, support, rng):
        zipf = TruncatedZipf(a=a, support=support)
        for __ in range(20):
            assert 1 <= zipf.sample(rng) <= support

    @given(
        st.floats(min_value=1.0, max_value=10_000.0),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=40)
    def test_zipf_gaps_positive_and_capped(self, mean, rng):
        process = ZipfArrivals(mean_interarrival_ms=mean)
        for __ in range(20):
            gap = process.gap_ms(rng)
            assert 0 < gap <= 30_000.0
