"""Workload traces: merged, per-class streams of arrival events.

A trace is the simulator's input: a time-ordered list of
:class:`WorkloadEvent` (arrival time, query class, origin node).  Builders
assemble traces from per-class arrival processes, including the paper's
canonical two-query sinusoid workload of Figs. 3–5.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from itertools import islice
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .arrival import ArrivalProcess
from .sinusoid import PAPER_PHASE_DIFFERENCE_DEG, SinusoidArrivals
from .zipf import ZipfArrivals

__all__ = [
    "WorkloadEvent",
    "build_trace",
    "two_class_sinusoid_trace",
    "zipf_trace",
]


@dataclass(frozen=True)
class WorkloadEvent:
    """One query arrival: at ``time_ms``, a class-``class_index`` query is
    posed to the federation at client node ``origin_node``."""

    time_ms: float
    class_index: int
    origin_node: int


def build_trace(
    processes: Dict[int, ArrivalProcess],
    horizon_ms: float,
    origin_nodes: Iterable[int],
    seed: int = 0,
    max_queries: Optional[int] = None,
) -> List[WorkloadEvent]:
    """Merge per-class arrival processes into one time-ordered trace.

    ``processes`` maps class index -> arrival process; each event's origin
    node is drawn uniformly from ``origin_nodes`` (clients are spread over
    the federation, as in the paper's setup where any node may be a
    client).  ``max_queries`` keeps only the first N events of the merged
    trace.

    Each class is a lazy stream of ``(time_ms, class_index, origin)``
    drawn from its own rng, and the streams are merged in time order
    (ties by class), so only the kept events and one look-ahead per
    class are drawn: the Fig. 6 10 ms trace keeps 10,000 of about three
    million.
    """
    if horizon_ms <= 0:
        raise ValueError("horizon must be positive")
    origins = list(origin_nodes)
    if not origins:
        raise ValueError("need at least one origin node")
    rng = random.Random(seed)
    streams = [
        _class_stream(
            processes[class_index],
            class_index,
            horizon_ms,
            origins,
            random.Random(rng.randrange(2**62)),
        )
        for class_index in sorted(processes)
    ]
    return [
        WorkloadEvent(time_ms, class_index, origin)
        for time_ms, class_index, origin in islice(
            heapq.merge(*streams), max_queries
        )
    ]


def _class_stream(
    process: ArrivalProcess,
    class_index: int,
    horizon_ms: float,
    origins: List[int],
    class_rng: random.Random,
) -> Iterator[Tuple[float, int, int]]:
    """One class's arrivals in time order, each origin drawn right after
    its arrival time from the same rng."""
    for time_ms in process.times(horizon_ms, class_rng):
        yield time_ms, class_index, class_rng.choice(origins)


def two_class_sinusoid_trace(
    horizon_ms: float,
    q1_peak_rate_per_ms: float,
    frequency_hz: float = 0.05,
    phase_difference_deg: float = PAPER_PHASE_DIFFERENCE_DEG,
    origin_nodes: Sequence[int] = (0,),
    q1_class: int = 0,
    q2_class: int = 1,
    seed: int = 0,
) -> List[WorkloadEvent]:
    """The paper's two-query dynamic workload (Figs. 3–5).

    Q1 and Q2 arrival rates follow sinusoids at ``frequency_hz`` with the
    given phase difference; Q1's peak rate is always twice Q2's (Section
    5.1).
    """
    processes: Dict[int, ArrivalProcess] = {
        q1_class: SinusoidArrivals(
            frequency_hz=frequency_hz,
            peak_rate_per_ms=q1_peak_rate_per_ms,
        ),
        q2_class: SinusoidArrivals(
            frequency_hz=frequency_hz,
            peak_rate_per_ms=q1_peak_rate_per_ms / 2.0,
            phase_deg=phase_difference_deg,
        ),
    }
    return build_trace(processes, horizon_ms, origin_nodes, seed=seed)


def zipf_trace(
    num_classes: int,
    mean_interarrival_ms: float,
    horizon_ms: float,
    origin_nodes: Sequence[int],
    max_queries: Optional[int] = None,
    seed: int = 0,
) -> List[WorkloadEvent]:
    """The paper's heterogeneous workload (Fig. 6).

    Every class's inter-arrival gaps are truncated-Zipf(a=1) with the given
    mean; the paper generates 10,000 queries over 100 classes, so
    ``max_queries`` optionally truncates the merged trace to the first N
    events.
    """
    # One process for every class: it is stateless (each class's rng is
    # passed to ``times``), so its inverse-CDF table is built once.
    arrivals = ZipfArrivals(mean_interarrival_ms=mean_interarrival_ms)
    processes = dict.fromkeys(range(num_classes), arrivals)
    return build_trace(
        processes, horizon_ms, origin_nodes, seed=seed, max_queries=max_queries
    )
