"""Multi-seed replication of stochastic experiments.

Single runs of a discrete-event simulation are noisy; every quantitative
claim in EXPERIMENTS.md should survive re-seeding.  :func:`replicate`
runs a seed-parameterised measurement several times and reports mean,
standard deviation, and the extremes, and :func:`ratio_confident`
answers the question the paper-shape assertions actually ask: "does
mechanism A beat mechanism B *consistently*, not just on one seed?"
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

__all__ = [
    "Replication",
    "replicate",
    "ratio_confident",
]


@dataclass(frozen=True)
class Replication:
    """Summary statistics of one measurement across seeds."""

    values: tuple
    seeds: tuple

    @property
    def mean(self) -> float:
        """Arithmetic mean across seeds."""
        return sum(self.values) / len(self.values)

    @property
    def std(self) -> float:
        """Sample standard deviation (0 for a single seed)."""
        n = len(self.values)
        if n < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(sum((v - mu) ** 2 for v in self.values) / (n - 1))

    @property
    def min(self) -> float:
        """Smallest observed value."""
        return min(self.values)

    @property
    def max(self) -> float:
        """Largest observed value."""
        return max(self.values)

    def render(self) -> str:
        """One-line summary."""
        return "mean %.3f +/- %.3f (min %.3f, max %.3f, n=%d)" % (
            self.mean,
            self.std,
            self.min,
            self.max,
            len(self.values),
        )

    def to_dict(self) -> dict:
        """JSON-ready form: raw values plus summary statistics."""
        return {
            "values": list(self.values),
            "seeds": list(self.seeds),
            "mean": self.mean,
            "std": self.std,
            "min": self.min,
            "max": self.max,
        }


def replicate(
    measure: Callable[[int], float], seeds: Sequence[int]
) -> Replication:
    """Run ``measure(seed)`` for every seed and summarise.

    ``measure`` should build a *fresh* world/federation from the seed —
    reusing simulation state across seeds invalidates independence.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    values = tuple(float(measure(seed)) for seed in seeds)
    for value in values:
        if math.isnan(value):
            raise ValueError("measurement returned NaN")
    return Replication(values=values, seeds=tuple(seeds))


def ratio_confident(
    numerator: Callable[[int], float],
    denominator: Callable[[int], float],
    seeds: Sequence[int],
    threshold: float = 1.0,
) -> bool:
    """True iff ``numerator/denominator > threshold`` on a majority of seeds.

    The per-seed pairing (same seed feeds both measurements) cancels
    workload randomness, which is the right comparison for "mechanism A
    beats mechanism B on the same trace".
    """
    wins = 0
    for seed in seeds:
        if numerator(seed) / denominator(seed) > threshold:
            wins += 1
    return wins * 2 > len(seeds)
