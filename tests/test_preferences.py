"""Unit tests for repro.core.preferences."""

from repro.core.preferences import ThroughputPreference
from repro.core.vectors import QueryVector


class TestThroughputPreference:
    def test_utility_is_total(self):
        assert ThroughputPreference().utility(QueryVector([2, 3])) == 5.0

    def test_prefers_more_queries(self):
        pref = ThroughputPreference()
        assert pref.prefers(QueryVector([3, 0]), QueryVector([1, 1]))

    def test_weak_preference_is_reflexive(self):
        pref = ThroughputPreference()
        v = QueryVector([1, 2])
        assert pref.prefers(v, v)

    def test_strict_preference(self):
        pref = ThroughputPreference()
        assert pref.strictly_prefers(QueryVector([2, 2]), QueryVector([1, 2]))
        assert not pref.strictly_prefers(QueryVector([2, 1]), QueryVector([1, 2]))

    def test_indifference_between_same_totals(self):
        pref = ThroughputPreference()
        assert pref.indifferent(QueryVector([2, 1]), QueryVector([0, 3]))

    def test_completeness(self):
        # Any two vectors are comparable (one direction always holds).
        pref = ThroughputPreference()
        a, b = QueryVector([5, 0]), QueryVector([0, 4])
        assert pref.prefers(a, b) or pref.prefers(b, a)

