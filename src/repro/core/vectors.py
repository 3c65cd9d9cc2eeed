"""Vector algebra of the Query Allocation problem (paper Section 2.2).

The behaviour of each node *i* in a time period ``tau`` is captured by three
vectors over the ``K`` query classes:

* the *demand* vector ``d_i``: queries posed to node *i* during ``tau``;
* the *consumption* vector ``c_i``: the subset of those queries actually
  evaluated somewhere in the system (``c_ik <= d_ik``);
* the *supply* vector ``s_i``: queries evaluated *by* node *i* during
  ``tau`` regardless of where they originated.

System-wide aggregates (paper eq. 1) are plain component-wise sums, and the
market-clearing identity (paper eq. 3) is ``s == c <= d``.

This module provides :class:`QueryVector`, an immutable, hashable vector of
per-class counts with the arithmetic the rest of the library needs, plus the
aggregate helpers of eq. 1.  Counts are non-negative numbers; integer counts
are the common case but fractional vectors appear in the continuous
relaxation of the supply problem (see :mod:`repro.core.supply`).
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence, Tuple, Union

Number = Union[int, float]

__all__ = [
    "QueryVector",
    "aggregate",
    "zero",
]


class QueryVector:
    """An immutable vector of per-query-class quantities.

    Instances behave like fixed-length numeric tuples with component-wise
    arithmetic.  All components must be non-negative and finite; the class
    intentionally rejects negative counts because demand, consumption and
    supply are counts of queries (paper Section 2.2 defines them in
    ``N^K``).

    >>> d = QueryVector([1, 6])
    >>> c = QueryVector([1, 1])
    >>> (d - c).components
    (0.0, 5.0)
    >>> d.total()
    7.0
    """

    __slots__ = ("_components",)

    def __init__(self, components: Iterable[Number]):
        comps = tuple(float(x) for x in components)
        for value in comps:
            if not math.isfinite(value):
                raise ValueError("query vector components must be finite")
            if value < 0:
                raise ValueError(
                    "query vector components must be non-negative, got %r"
                    % (value,)
                )
        self._components = comps

    # -- constructors ------------------------------------------------------

    @classmethod
    def _from_trusted_tuple(cls, components: Tuple[float, ...]) -> "QueryVector":
        """Wrap an already-validated tuple of floats without re-checking.

        Internal fast path: callers must guarantee every component is a
        finite, non-negative ``float``.  All arithmetic on validated
        vectors preserves that invariant, which is what makes skipping the
        per-component re-validation safe on the hot path.
        """
        self = object.__new__(cls)
        self._components = components
        return self

    @classmethod
    def zeros(cls, num_classes: int) -> "QueryVector":
        """The all-zero vector over ``num_classes`` classes."""
        if num_classes < 0:
            raise ValueError("num_classes must be non-negative")
        return cls._from_trusted_tuple((0.0,) * num_classes)

    @classmethod
    def unit(cls, num_classes: int, index: int, amount: Number = 1) -> "QueryVector":
        """A vector that is ``amount`` at ``index`` and zero elsewhere."""
        if not 0 <= index < num_classes:
            raise IndexError("class index %d out of range" % index)
        comps = [0.0] * num_classes
        comps[index] = float(amount)
        return cls(comps)

    # -- basic protocol ----------------------------------------------------

    @property
    def components(self) -> Tuple[float, ...]:
        """The underlying tuple of components."""
        return self._components

    @property
    def num_classes(self) -> int:
        """Number of query classes ``K`` this vector ranges over."""
        return len(self._components)

    def __len__(self) -> int:
        return len(self._components)

    def __iter__(self) -> Iterator[float]:
        return iter(self._components)

    def __getitem__(self, index: int) -> float:
        return self._components[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QueryVector):
            return self._components == other._components
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._components)

    def __repr__(self) -> str:
        return "QueryVector(%s)" % (self._components,)

    # -- arithmetic ---------------------------------------------------------

    def _check_compatible(self, other: "QueryVector") -> None:
        if len(self) != len(other):
            raise ValueError(
                "incompatible vector lengths: %d vs %d" % (len(self), len(other))
            )

    def __add__(self, other: "QueryVector") -> "QueryVector":
        self._check_compatible(other)
        return QueryVector._from_trusted_tuple(
            tuple(a + b for a, b in zip(self._components, other._components))
        )

    def __sub__(self, other: "QueryVector") -> "QueryVector":
        """Component-wise difference, clamped at zero.

        Clamping matches the paper's semantics: the difference of two count
        vectors (e.g. unmet demand ``d - c``) is itself a count vector.  Use
        :meth:`signed_difference` when true signed excess is needed
        (Definition 2, excess demand).
        """
        self._check_compatible(other)
        return QueryVector._from_trusted_tuple(
            tuple(
                max(0.0, a - b)
                for a, b in zip(self._components, other._components)
            )
        )

    def signed_difference(self, other: "QueryVector") -> Tuple[float, ...]:
        """``self - other`` without clamping, as a plain tuple.

        The result may contain negative values and therefore is not a
        :class:`QueryVector`; excess demand (paper Definition 2) is the main
        consumer.
        """
        self._check_compatible(other)
        return tuple(a - b for a, b in zip(self._components, other._components))

    def __mul__(self, scalar: Number) -> "QueryVector":
        if scalar < 0:
            raise ValueError("cannot scale a query vector by a negative factor")
        if not math.isfinite(scalar):
            raise ValueError("query vector components must be finite")
        scalar = float(scalar)
        return QueryVector._from_trusted_tuple(
            tuple(a * scalar for a in self._components)
        )

    __rmul__ = __mul__

    def dot(self, prices: Sequence[Number]) -> float:
        """Value of this vector at ``prices``: ``p . v`` (paper Section 3.1).

        ``prices`` may be any sequence of length ``K``, typically a
        :class:`repro.core.market.PriceVector`.
        """
        if len(prices) != len(self):
            raise ValueError(
                "price vector length %d does not match %d classes"
                % (len(prices), len(self))
            )
        return sum(p * v for p, v in zip(prices, self._components))

    # -- orderings and predicates -------------------------------------------

    def total(self) -> float:
        """Total number of queries in the vector, ``sum_k v_k``.

        This is the quantity the paper's preference relation maximises.
        """
        return sum(self._components)

    def dominates(self, other: "QueryVector") -> bool:
        """Component-wise ``>=`` with strict ``>`` in at least one class."""
        self._check_compatible(other)
        ge_everywhere = all(
            a >= b for a, b in zip(self._components, other._components)
        )
        gt_somewhere = any(
            a > b for a, b in zip(self._components, other._components)
        )
        return ge_everywhere and gt_somewhere

    def componentwise_le(self, other: "QueryVector") -> bool:
        """True iff every component of ``self`` is ``<=`` that of ``other``.

        This is the partial order of paper eq. 3 (``c <= d``).
        """
        self._check_compatible(other)
        return all(a <= b for a, b in zip(self._components, other._components))

    def is_zero(self) -> bool:
        """True iff all components are zero."""
        return all(a == 0.0 for a in self._components)

    def is_integral(self, tolerance: float = 1e-9) -> bool:
        """True iff all components are (numerically) integers."""
        return all(
            abs(a - round(a)) <= tolerance for a in self._components
        )

    def rounded(self) -> "QueryVector":
        """Round every component down to the nearest integer.

        Rounding *down* keeps the vector feasible whenever the fractional
        vector was feasible, which is what QA-NT needs when converting the
        continuous supply solution to integer query counts (the rounding
        error the paper blames for Greedy's small-load advantage, Fig. 5a).
        """
        return QueryVector._from_trusted_tuple(
            tuple(float(math.floor(a + 1e-9)) for a in self._components)
        )

    def as_int_tuple(self) -> Tuple[int, ...]:
        """Components as integers; raises if the vector is not integral."""
        if not self.is_integral():
            raise ValueError("vector %r is not integral" % (self,))
        return tuple(int(round(a)) for a in self._components)


def zero(num_classes: int) -> QueryVector:
    """Shorthand for :meth:`QueryVector.zeros`."""
    return QueryVector.zeros(num_classes)


def aggregate(vectors: Iterable[QueryVector]) -> QueryVector:
    """Component-wise sum of per-node vectors (paper eq. 1).

    An empty iterable is rejected because the number of classes would be
    unknown; callers aggregating a possibly-empty federation should pass an
    explicit zero vector.

    The sum accumulates into a single component list rather than chaining
    ``+`` (which would allocate one intermediate vector per element).
    """
    iterator = iter(vectors)
    try:
        first = next(iterator)
    except StopIteration:
        raise ValueError("cannot aggregate an empty collection of vectors")
    totals = list(first._components)
    length = len(totals)
    for vector in iterator:
        comps = vector._components
        if len(comps) != length:
            raise ValueError(
                "incompatible vector lengths: %d vs %d" % (length, len(comps))
            )
        for k, value in enumerate(comps):
            totals[k] += value
    return QueryVector._from_trusted_tuple(tuple(totals))
