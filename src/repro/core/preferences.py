"""Preference relations over consumption vectors (paper Section 2.2).

A preference relation ``>=_i`` of node *i* ranks candidate consumption
vectors.  The paper assumes throughout that every node simply prefers to
evaluate as many queries as possible::

    c >=_i c'   iff   sum_k c_k >= sum_k c'_k

Pareto dominance (:mod:`repro.core.pareto`) only needs the abstract
interface; this module defines it and that one concrete preference.
"""

from __future__ import annotations

import abc

from .vectors import QueryVector

__all__ = ["PreferenceRelation", "ThroughputPreference"]


class PreferenceRelation(abc.ABC):
    """Abstract weak preference ``>=_i`` over consumption vectors.

    Implementations must be complete and transitive (a rational preference
    in the microeconomics sense) for FTWE (paper §3.2) to apply.
    """

    @abc.abstractmethod
    def utility(self, consumption: QueryVector) -> float:
        """A numeric utility representing the preference.

        ``prefers`` and ``strictly_prefers`` are derived from this value, so
        any preference expressible by a utility function is supported —
        which is exactly the class of continuous rational preferences.
        """

    def prefers(self, first: QueryVector, second: QueryVector) -> bool:
        """Weak preference: ``first >=_i second``."""
        return self.utility(first) >= self.utility(second)

    def strictly_prefers(self, first: QueryVector, second: QueryVector) -> bool:
        """Strict preference: ``first >_i second``."""
        return self.utility(first) > self.utility(second)

    def indifferent(self, first: QueryVector, second: QueryVector) -> bool:
        """Indifference: ``first ~_i second``."""
        return self.utility(first) == self.utility(second)


class ThroughputPreference(PreferenceRelation):
    """The paper's canonical preference: more queries answered is better.

    ``c >=_i c'  iff  sum_k c_k >= sum_k c'_k`` — node identity does not
    matter, so a single shared instance can serve every node.
    """

    def utility(self, consumption: QueryVector) -> float:
        return consumption.total()

    def __repr__(self) -> str:
        return "ThroughputPreference()"

