"""Discrete-event simulation kernel.

A minimal, deterministic event-heap simulator: events are slim
``(time, seq, callback, args)`` slots ordered by time with FIFO
tie-breaking, so two runs with the same seeds produce identical traces.
Passing callback arguments through the slot (instead of closing over them)
keeps the hot deliver path free of per-event closure allocation.  All
simulation modules measure time in **milliseconds** (matching the paper's
reporting units).

The kernel is deliberately tiny — scheduling, pre-sorted streams, one
time-bounded run loop — because everything domain-specific (nodes,
networks, markets) is built on top of it in sibling modules.  A scheduled
event always fires: nothing in the system withdraws one.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, List, Optional, Sequence, Tuple

__all__ = [
    "Simulator",
]


class _EventStream:
    """A pre-sorted run of events sharing one resident heap slot.

    Large workload traces schedule every arrival up front; putting each
    one in the heap makes ``heapify``/``heappush`` costs scale with the
    trace length.  A stream keeps the full ``(time, callback, args)``
    run in a plain list and exposes only its head to the heap — when the
    head fires, the next entry is pushed.  Sequence numbers for the whole
    run are reserved contiguously at registration, so interleaving with
    individually scheduled events is identical to having ``schedule_at``
    been called once per entry at registration time.
    """

    __slots__ = ("_entries", "_pos", "_base_seq")

    def __init__(
        self,
        entries: Sequence[Tuple[float, Callable[..., Any], Tuple[Any, ...]]],
        base_seq: int,
    ) -> None:
        self._entries = entries
        self._pos = 0
        self._base_seq = base_seq


class Simulator:
    """A deterministic discrete-event simulator clocked in milliseconds."""

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: List[Tuple[float, int, Callable[..., Any], tuple]] = []
        self._seq = 0
        self._events_processed = 0
        self._live = 0

    @property
    def now(self) -> float:
        """Current simulation time in milliseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of events still due to fire, unexposed stream entries
        included."""
        return self._live

    @property
    def heap_size(self) -> int:
        """Physical heap length: a stream occupies one slot."""
        return len(self._heap)

    def schedule(
        self, delay_ms: float, callback: Callable[..., Any], *args: Any
    ) -> None:
        """Schedule ``callback(*args)`` to run ``delay_ms`` from now.

        Extra positional ``args`` are stored in the event slot and passed
        to ``callback`` when it fires — the slim-dispatch alternative to
        allocating a closure per event on hot paths (message deliveries,
        a query's arrival at its node).
        """
        if delay_ms < 0:
            raise ValueError("cannot schedule an event in the past")
        self.schedule_at(self._now + delay_ms, callback, *args)

    def schedule_at(
        self, time_ms: float, callback: Callable[..., Any], *args: Any
    ) -> None:
        """Schedule ``callback(*args)`` at absolute time ``time_ms``."""
        # The negated chain also refuses NaN, which passes any `<` test.
        if not self._now <= time_ms < math.inf:
            raise ValueError(
                "cannot schedule at %r: event times must be finite and not "
                "before the current time %.3f" % (time_ms, self._now)
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time_ms, seq, callback, args))
        self._live += 1

    def schedule_stream(
        self,
        entries: Sequence[Tuple[float, Callable[..., Any], Tuple[Any, ...]]],
    ) -> None:
        """Schedule a pre-sorted run of ``(time_ms, callback, args)`` events.

        Equivalent to calling :meth:`schedule_at` once per entry, in order,
        right now — the whole run's sequence numbers are reserved here, so
        FIFO tie-breaking against other events is identical — but only the
        stream's next-due entry occupies a heap slot at any moment.  This
        keeps the heap size O(live streams + individually scheduled
        events) instead of O(trace length) for bulk workload registration.

        ``entries`` must be sorted ascending by finite time and lie
        at/after the current clock.
        """
        if not entries:
            return
        prev = self._now
        for time_ms, _callback, _args in entries:
            if not prev <= time_ms < math.inf:
                raise ValueError(
                    "stream entry at %r: entries must be finite, sorted "
                    "ascending and not scheduled in the past" % (time_ms,)
                )
            prev = time_ms
        base_seq = self._seq
        self._seq = base_seq + len(entries)
        self._live += len(entries)
        self._push_stream_head(_EventStream(entries, base_seq))

    def _push_stream_head(self, stream: _EventStream) -> None:
        """Put the stream's next pending entry into the heap."""
        time_ms, callback, args = stream._entries[stream._pos]
        heapq.heappush(
            self._heap,
            (
                time_ms,
                stream._base_seq + stream._pos,
                self._advance_stream,
                (stream, callback, args),
            ),
        )

    def _advance_stream(
        self,
        stream: _EventStream,
        callback: Callable[..., Any],
        args: Tuple[Any, ...],
    ) -> None:
        """Fire one stream entry; expose the next one to the heap first
        (the callback may itself drain the heap or schedule new work)."""
        stream._pos += 1
        if stream._pos < len(stream._entries):
            self._push_stream_head(stream)
        callback(*args)

    def run(self, until_ms: Optional[float] = None) -> None:
        """Run until the heap empties or ``until_ms`` passes.

        ``until_ms`` is inclusive: events scheduled exactly at ``until_ms``
        still fire, later ones stay pending for the next :meth:`run`, and
        the clock ends at the bound.  Consecutive same-timestamp events (a
        period tick's retry burst, simultaneous message deliveries)
        dispatch back-to-back in FIFO seq order.
        """
        heap = self._heap
        heappop = heapq.heappop
        bound = math.inf if until_ms is None else until_ms
        while heap and heap[0][0] <= bound:
            time_ms, __, callback, args = heappop(heap)
            self._live -= 1
            self._now = time_ms
            self._events_processed += 1
            callback(*args)
        if until_ms is not None and self._now < until_ms:
            self._now = until_ms

    def every(
        self,
        interval_ms: float,
        callback: Callable[[], Any],
        start_ms: Optional[float] = None,
        until_ms: Optional[float] = None,
    ) -> None:
        """Schedule ``callback`` periodically (period ticks, metric samples).

        The recurrence reschedules itself after each firing until the
        callback returns a true value; ``until_ms`` (inclusive) bounds
        every firing, the first included.
        """
        if interval_ms <= 0:
            raise ValueError("interval must be positive")
        first = self._now if start_ms is None else start_ms
        if until_ms is not None and first > until_ms:
            return

        def fire_and_reschedule() -> None:
            if callback():
                return
            next_time = self._now + interval_ms
            if until_ms is None or next_time <= until_ms:
                self.schedule_at(next_time, fire_and_reschedule)

        self.schedule_at(first, fire_and_reschedule)
