"""Zipf-distributed inter-arrival times (paper Fig. 6 workload).

The heterogeneous-workload experiment draws each class's inter-arrival
*time* from a Zipf distribution with parameter ``a = 1``, capped at
30,000 ms, with the scale chosen so the mean inter-arrival time matches a
requested target (the paper sweeps 10 ms – 20,000 ms).  A Zipf-shaped gap
distribution makes arrivals bursty: most gaps are tiny, a few are huge.

``a = 1`` has no normalisable distribution on unbounded support, so the
paper's 30,000 ms cap is structural, not cosmetic: we sample from the
*truncated* Zipf ``P(X = x) ~ 1/x^a`` on ``{1..support}`` via an inverse
CDF lookup, then scale.
"""

from __future__ import annotations

import bisect
import itertools
import operator
import random
from functools import reduce
from typing import Iterator, List

from .arrival import ArrivalProcess

__all__ = [
    "TruncatedZipf",
    "ZipfArrivals",
]

#: Paper cap on the inter-arrival time, in milliseconds.
MAX_INTERARRIVAL_MS = 30_000.0


class TruncatedZipf:
    """Zipf(``a``) on ``{1, .., support}`` with inverse-CDF sampling."""

    def __init__(self, a: float = 1.0, support: int = 3000):
        if a <= 0:
            raise ValueError("zipf exponent must be positive")
        if support <= 0:
            raise ValueError("support must be positive")
        self.a = a
        self.support = support
        weights = [1.0 / (x ** a) for x in range(1, support + 1)]
        # Sums run left to right: builtin ``sum`` compensates its
        # rounding from Python 3.12 on, which moves the last bits.
        total = reduce(operator.add, weights, 0.0)
        self._cdf: List[float] = list(
            itertools.accumulate(w / total for w in weights)
        )
        self._mean = (
            reduce(
                operator.add,
                (x * w for x, w in zip(range(1, support + 1), weights)),
                0.0,
            )
            / total
        )

    @property
    def mean(self) -> float:
        """Expected value of the truncated distribution."""
        return self._mean

    def sample(self, rng: random.Random) -> int:
        """One draw in ``{1..support}``.

        The index is clamped because the accumulated CDF's last entry can
        round to slightly below 1.0, which would otherwise let a draw land
        one past the support.
        """
        index = bisect.bisect_left(self._cdf, rng.random())
        return min(index, self.support - 1) + 1


class ZipfArrivals(ArrivalProcess):
    """Arrivals whose gaps are scaled truncated-Zipf draws.

    ``mean_interarrival_ms`` sets the target mean gap; every gap is
    additionally capped at ``max_interarrival_ms`` (paper: 30 s).
    """

    def __init__(
        self,
        mean_interarrival_ms: float,
        a: float = 1.0,
        support: int = 3000,
        max_interarrival_ms: float = MAX_INTERARRIVAL_MS,
    ):
        if mean_interarrival_ms <= 0:
            raise ValueError("mean inter-arrival time must be positive")
        if max_interarrival_ms <= 0:
            raise ValueError("max inter-arrival time must be positive")
        self._zipf = TruncatedZipf(a=a, support=support)
        self._scale = mean_interarrival_ms / self._zipf.mean
        self._cap = max_interarrival_ms
        # The gap of every index ``bisect_left`` can return on the CDF,
        # the clamped last one included (see ``TruncatedZipf.sample``).
        self._gaps = [
            min(self._cap, (min(index, support - 1) + 1) * self._scale)
            for index in range(support + 1)
        ]

    def gap_ms(self, rng: random.Random) -> float:
        """One inter-arrival gap in milliseconds."""
        return min(self._cap, self._zipf.sample(rng) * self._scale)

    def times(self, horizon_ms: float, rng: random.Random) -> Iterator[float]:
        """Cumulative :meth:`gap_ms` draws, each a table lookup."""
        gaps, cdf, uniform = self._gaps, self._zipf._cdf, rng.random
        clock = gaps[bisect.bisect_left(cdf, uniform())]
        while clock < horizon_ms:
            yield clock
            clock += gaps[bisect.bisect_left(cdf, uniform())]
