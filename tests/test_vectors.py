"""Unit tests for repro.core.vectors."""


import pytest

from repro.core.vectors import QueryVector, aggregate, zero


class TestConstruction:
    def test_components_are_floats(self):
        v = QueryVector([1, 2, 3])
        assert v.components == (1.0, 2.0, 3.0)

    def test_rejects_negative_components(self):
        with pytest.raises(ValueError):
            QueryVector([1, -1])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            QueryVector([float("nan")])

    def test_rejects_infinity(self):
        with pytest.raises(ValueError):
            QueryVector([float("inf")])

    def test_zeros(self):
        assert QueryVector.zeros(3).components == (0.0, 0.0, 0.0)

    def test_zeros_rejects_negative_length(self):
        with pytest.raises(ValueError):
            QueryVector.zeros(-1)

    def test_unit(self):
        assert QueryVector.unit(3, 1).components == (0.0, 1.0, 0.0)

    def test_unit_with_amount(self):
        assert QueryVector.unit(2, 0, 4).components == (4.0, 0.0)

    def test_unit_index_out_of_range(self):
        with pytest.raises(IndexError):
            QueryVector.unit(2, 2)

    def test_zero_helper(self):
        assert zero(2) == QueryVector.zeros(2)


class TestProtocol:
    def test_len_and_num_classes(self):
        v = QueryVector([1, 2])
        assert len(v) == 2
        assert v.num_classes == 2

    def test_iteration(self):
        assert list(QueryVector([1, 2, 3])) == [1.0, 2.0, 3.0]

    def test_indexing(self):
        assert QueryVector([4, 5])[1] == 5.0

    def test_equality_and_hash(self):
        assert QueryVector([1, 2]) == QueryVector([1, 2])
        assert hash(QueryVector([1, 2])) == hash(QueryVector([1, 2]))
        assert QueryVector([1, 2]) != QueryVector([2, 1])

    def test_equality_with_other_type(self):
        assert QueryVector([1]) != (1.0,)

    def test_repr_contains_components(self):
        assert "1.0" in repr(QueryVector([1]))


class TestArithmetic:
    def test_addition(self):
        assert (QueryVector([1, 2]) + QueryVector([3, 4])).components == (4.0, 6.0)

    def test_addition_length_mismatch(self):
        with pytest.raises(ValueError):
            QueryVector([1]) + QueryVector([1, 2])

    def test_subtraction_clamps_at_zero(self):
        assert (QueryVector([1, 5]) - QueryVector([3, 2])).components == (0.0, 3.0)

    def test_signed_difference(self):
        assert QueryVector([1, 5]).signed_difference(QueryVector([3, 2])) == (
            -2.0,
            3.0,
        )

    def test_scalar_multiplication(self):
        assert (QueryVector([1, 2]) * 2).components == (2.0, 4.0)
        assert (3 * QueryVector([1, 0])).components == (3.0, 0.0)

    def test_negative_scaling_rejected(self):
        with pytest.raises(ValueError):
            QueryVector([1]) * -1

    def test_dot(self):
        assert QueryVector([1, 2]).dot([3, 4]) == 11.0

    def test_dot_length_mismatch(self):
        with pytest.raises(ValueError):
            QueryVector([1, 2]).dot([1])


class TestPredicates:
    def test_total(self):
        assert QueryVector([1, 2, 3]).total() == 6.0

    def test_dominates_strict(self):
        assert QueryVector([2, 2]).dominates(QueryVector([1, 2]))

    def test_dominates_requires_strict_improvement(self):
        assert not QueryVector([1, 2]).dominates(QueryVector([1, 2]))

    def test_dominates_requires_ge_everywhere(self):
        assert not QueryVector([3, 1]).dominates(QueryVector([1, 2]))

    def test_componentwise_le(self):
        assert QueryVector([1, 2]).componentwise_le(QueryVector([1, 3]))
        assert not QueryVector([2, 2]).componentwise_le(QueryVector([1, 3]))

    def test_is_zero(self):
        assert QueryVector.zeros(3).is_zero()
        assert not QueryVector([0, 1]).is_zero()

    def test_is_integral(self):
        assert QueryVector([1, 2]).is_integral()
        assert not QueryVector([1.5]).is_integral()

    def test_rounded_floors(self):
        assert QueryVector([1.9, 2.0]).rounded().components == (1.0, 2.0)

    def test_as_int_tuple(self):
        assert QueryVector([1, 2]).as_int_tuple() == (1, 2)

    def test_as_int_tuple_rejects_fractional(self):
        with pytest.raises(ValueError):
            QueryVector([1.5]).as_int_tuple()


class TestAggregate:
    def test_aggregate_sums_componentwise(self):
        total = aggregate([QueryVector([1, 2]), QueryVector([3, 4])])
        assert total == QueryVector([4, 6])

    def test_aggregate_single(self):
        assert aggregate([QueryVector([1])]) == QueryVector([1])

    def test_aggregate_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])
