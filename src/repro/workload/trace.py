"""Workload traces: merged, per-class streams of arrival events.

A trace is the simulator's input: a time-ordered sequence of
:class:`WorkloadEvent` (arrival time, query class, origin node).  Builders
return a :class:`Trace`, which holds the events as three read-only
columns; both engines read the columns (:func:`trace_columns`) and build
no per-event object, and a plain list of events is accepted wherever a
trace is.  Builders assemble traces from per-class arrival processes,
including the paper's canonical two-query sinusoid workload of Figs. 3–5.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import islice
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .arrival import ArrivalProcess
from .sinusoid import PAPER_PHASE_DIFFERENCE_DEG, SinusoidArrivals
from .zipf import ZipfArrivals

__all__ = [
    "Trace",
    "WorkloadEvent",
    "build_trace",
    "trace_columns",
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


class Trace(Sequence[WorkloadEvent]):
    """A read-only sequence of events held as three equal-length columns:
    ``times_ms`` (float64), ``class_index`` and ``origin_node`` (int64).

    Indexing and iteration make :class:`WorkloadEvent` objects with plain
    Python numbers on demand; a slice is a ``Trace`` over views of the
    columns.  A trace equals another trace with the same columns, or a
    list or tuple of the same events (so ``build_trace(...) == [...]``).
    """

    __slots__ = ("times_ms", "class_index", "origin_node")

    def __init__(self, times_ms, class_index, origin_node):
        # Views: marking them read-only leaves a caller's arrays writable.
        columns = (
            np.asarray(times_ms, dtype=np.float64).view(),
            _index_column(class_index, "class_index"),
            _index_column(origin_node, "origin_node"),
        )
        if columns[0].ndim != 1 or any(
            column.shape != columns[0].shape for column in columns
        ):
            raise ValueError("a trace needs three 1-D columns of one length")
        for column in columns:
            column.flags.writeable = False
        self.times_ms, self.class_index, self.origin_node = columns

    def __len__(self) -> int:
        return len(self.times_ms)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Trace(
                self.times_ms[index],
                self.class_index[index],
                self.origin_node[index],
            )
        return WorkloadEvent(
            float(self.times_ms[index]),
            int(self.class_index[index]),
            int(self.origin_node[index]),
        )

    def __iter__(self) -> Iterator[WorkloadEvent]:
        return map(
            WorkloadEvent,
            self.times_ms.tolist(),
            self.class_index.tolist(),
            self.origin_node.tolist(),
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Trace):
            return all(
                np.array_equal(mine, theirs)
                for mine, theirs in zip(trace_columns(self), trace_columns(other))
            )
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return "Trace(%d events)" % len(self)


def _index_column(values, name: str) -> np.ndarray:
    """``values`` as an int64 view; a non-integer column (an origin of
    ``1.5``) is refused rather than truncated."""
    column = np.asarray(values)
    if column.size and column.dtype.kind not in "iub":
        raise ValueError(
            "trace %s column has dtype %s: expected integers" % (name, column.dtype)
        )
    return column.astype(np.int64, copy=False).view()


def trace_columns(
    trace: Iterable[WorkloadEvent],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(times, classes, origins)`` arrays of ``trace``, in trace order.

    A :class:`Trace` hands over its own read-only columns.  Any other
    iterable of events is read field by field; its class and origin
    values keep their own types (an origin of ``1.5`` makes a float
    column), so a caller can check them.
    """
    if isinstance(trace, Trace):
        return trace.times_ms, trace.class_index, trace.origin_node
    events = list(trace)
    return (
        np.array([e.time_ms for e in events], dtype=np.float64),
        np.array([e.class_index for e in events]),
        np.array([e.origin_node for e in events]),
    )


class _ClassStream:
    """One class's arrivals, drawn on demand from the class's own rng:
    each arrival time, then its origin, as one lazy merge would."""

    __slots__ = ("times", "origins", "live", "_events", "_choice", "_pool")

    def __init__(
        self,
        process: ArrivalProcess,
        horizon_ms: float,
        pool: List[int],
        rng: random.Random,
    ):
        self.times: List[float] = []
        self.origins: List[int] = []
        self.live = True  # False once the process has no arrival left
        self._events = process.times(horizon_ms, rng)
        self._choice = rng.choice
        self._pool = pool

    def draw(self, count: int) -> None:
        """Draw up to ``count`` more arrivals."""
        times, origins = self.times, self.origins
        choice, pool = self._choice, self._pool
        before = len(times)
        for time_ms in islice(self._events, count):
            times.append(time_ms)
            origins.append(choice(pool))
        if len(times) - before < count:
            self.live = False

    def draw_until(self, until_ms: float) -> None:
        """Draw arrivals until one at or past ``until_ms`` is drawn (with
        ``inf``: all of them)."""
        times, origins = self.times, self.origins
        choice, pool = self._choice, self._pool
        for time_ms in self._events:
            times.append(time_ms)
            origins.append(choice(pool))
            if time_ms >= until_ms:
                return
        self.live = False


def _merged(
    streams: Sequence[_ClassStream], class_ids: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every drawn arrival, sorted by (time, class), each class's own in
    draw order: a stable sort of the streams laid end to end in class
    order."""
    times = np.concatenate([np.array(s.times, dtype=np.float64) for s in streams])
    classes = np.repeat(
        np.asarray(class_ids, dtype=np.int64), [len(s.times) for s in streams]
    )
    origins = np.concatenate([np.array(s.origins, dtype=np.int64) for s in streams])
    order = np.argsort(times, kind="stable")
    return times[order], classes[order], origins[order]


def build_trace(
    processes: Dict[int, ArrivalProcess],
    horizon_ms: float,
    origin_nodes: Iterable[int],
    seed: int = 0,
    max_queries: Optional[int] = None,
) -> Trace:
    """Merge per-class arrival processes into one time-ordered trace.

    ``processes`` maps class index -> arrival process; each event's origin
    node is drawn uniformly from ``origin_nodes`` (clients are spread over
    the federation, as in the paper's setup where any node may be a
    client).  ``max_queries`` keeps only the first N events of the merged
    trace.

    Each class draws from its own rng, an arrival time and then its
    origin; the classes merge by one stable sort on (time, class).
    Without ``max_queries`` every class is drawn to the horizon.  With
    it, the classes are drawn in rounds until the cut is known: no class
    can still have an arrival that sorts before the N-th drawn event.
    So an unbounded horizon works, and the Fig. 6 10 ms trace keeps
    10,000 of about three million without drawing the rest.
    """
    if horizon_ms <= 0:
        raise ValueError("horizon must be positive")
    origins = list(origin_nodes)
    if not origins:
        raise ValueError("need at least one origin node")
    if max_queries is not None and max_queries < 0:
        raise ValueError("max_queries must be None or >= 0, not %r" % (max_queries,))
    rng = random.Random(seed)
    class_ids = sorted(processes)
    streams = [
        _ClassStream(
            processes[class_index],
            horizon_ms,
            origins,
            random.Random(rng.randrange(2**62)),
        )
        for class_index in class_ids
    ]
    if not streams or max_queries == 0:
        return Trace([], [], [])
    if max_queries is None:
        for stream in streams:
            stream.draw_until(math.inf)
        return Trace(*_merged(streams, class_ids))
    # A first half share each, so the next round can aim at the cut.
    probe = -(-max_queries // (2 * len(streams)))
    for stream in streams:
        stream.draw(probe)
    while True:
        times, classes, origins_drawn = _merged(streams, class_ids)
        settled = _settled_count(times, classes, streams, class_ids)
        if settled >= max_queries or not any(s.live for s in streams):
            break
        # The last settled arrival is the least live key's, so every
        # live class whose last arrival is before the target draws on,
        # that one included.  The target is where the merge should reach
        # the cut at the settled prefix's rate.
        frontier_ms = float(times[settled - 1])
        if frontier_ms > 0.0:
            target_ms = frontier_ms * max_queries / settled
        else:
            target_ms = 1.0
        for stream in streams:
            if stream.live and stream.times[-1] < target_ms:
                stream.draw_until(target_ms)
    return Trace(
        times[:max_queries], classes[:max_queries], origins_drawn[:max_queries]
    )


def _settled_count(
    times: np.ndarray,
    classes: np.ndarray,
    streams: Sequence[_ClassStream],
    class_ids: Sequence[int],
) -> int:
    """How many of the sorted drawn arrivals no undrawn one can precede.

    A live class's next arrival sorts at or after its last drawn (time,
    class) key, and after every drawn arrival it ties with; so every
    drawn arrival up to the least such key is settled.
    """
    keys = [
        (stream.times[-1], class_index)
        for stream, class_index in zip(streams, class_ids)
        if stream.live
    ]
    if not keys:
        return len(times)
    frontier_ms, frontier_class = min(keys)
    lo = int(np.searchsorted(times, frontier_ms, side="left"))
    hi = int(np.searchsorted(times, frontier_ms, side="right"))
    return lo + int(np.searchsorted(classes[lo:hi], frontier_class, side="right"))


def two_class_sinusoid_trace(
    horizon_ms: float,
    q1_peak_rate_per_ms: float,
    frequency_hz: float = 0.05,
    phase_difference_deg: float = PAPER_PHASE_DIFFERENCE_DEG,
    origin_nodes: Sequence[int] = (0,),
    q1_class: int = 0,
    q2_class: int = 1,
    seed: int = 0,
) -> Trace:
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
) -> Trace:
    """The paper's heterogeneous workload (Fig. 6).

    Every class's inter-arrival gaps are truncated-Zipf(a=1) with the given
    mean; the paper generates 10,000 queries over 100 classes, so
    ``max_queries`` optionally truncates the merged trace to the first N
    events.
    """
    # One process for every class: it is stateless (each class's rng is
    # passed to ``times``), so its gap table is built once.
    arrivals = ZipfArrivals(mean_interarrival_ms=mean_interarrival_ms)
    processes = dict.fromkeys(range(num_classes), arrivals)
    return build_trace(
        processes, horizon_ms, origin_nodes, seed=seed, max_queries=max_queries
    )
