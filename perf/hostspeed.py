"""Host-speed reference: how much slower than quiet is this box right now?

The benchmark runs on a few cores of a shared host that, for tens of
seconds to minutes at a time and with no local process to blame,
executes the same Python 1.3-2.4x slower (CPU time stretches with wall
time, ``steal`` stays 0: a neighbour on the core, not the scheduler).
Whole runs fall into such a phase, so no median, minimum or longer run
removes it.

What removes most of it is measuring the host while the engine runs: an
interval timer interrupts every timed call each ``INTERVAL_S`` and times
one fixed, repo-independent ``Reference.chunk``.  The mean chunk time
over ``REFERENCE_CHUNK_S`` is the call's *slowdown*; the engines are
stretched by ``slowdown ** SENSITIVITY`` (they feel a neighbour less
than the chunk does), and host-time metrics are reported in reference
seconds: measured seconds, minus the chunks' own time, divided by that
stretch.  README "Reference seconds" has the fit and what it leaves.

The chunk is half arithmetic loop, half heap/dict/attribute churn over
a few MB: the engines' kind of work, deliberately cache-hungry so that
it notices a neighbour at all.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time
from typing import List

__all__ = ["INTERVAL_S", "REFERENCE_CHUNK_S", "SENSITIVITY", "Reference", "Sampler"]

#: One chunk per interval: ~1 ms in 20, so the sampler itself costs ~5 %
#: of the run (subtracted again) and a 0.3 s run still gets 15 samples.
INTERVAL_S = 0.02
#: Mean chunk time inside a single-process run on the 2-core reference box
#: in a quiet phase (back to back, with warm caches, a chunk takes ~1.1 ms).
#: Only a scale: it makes reference seconds read like quiet wall seconds
#: there.  Changing it rescales every host-time metric ever reported.
REFERENCE_CHUNK_S = 0.00135
#: Run time grows as chunk time to this power.  Fitted: over 132 driver-style
#: runs (ten seeds x two sets per workload, chunk means 0.85-2.1 x the
#: reference) the log-log slope of measured time against chunk time was
#: 0.85-0.89 for single-process ``qa-nt``, 0.64-0.65 for sharded ``qa-nt``,
#: 0.39-0.72 for ``greedy`` and 0.30-0.66 for set-up.  One exponent serves
#: all; 0.6 gave the smallest worst ten-run spread and median shift.
SENSITIVITY = 0.6


class _Node:
    __slots__ = ("busy", "price", "queue", "done")

    def __init__(self) -> None:
        self.busy = 0.0
        self.price = 1.0
        self.queue: List[int] = []
        self.done = 0

    def offer(self, now: float, cost: float) -> float:
        start = self.busy if self.busy > now else now
        return start + cost * self.price


class Reference:
    """The fixed work whose duration stands for the host's speed.

    Frozen like the workload sizes: editing ``chunk`` changes what a
    reference second is.  Nothing here imports or calls ``repro``.
    """

    def __init__(self) -> None:
        self._nodes = [_Node() for _ in range(2000)]
        self._table = {i: (i * 2654435761) % 2000 for i in range(40000)}
        self._step = 0

    def chunk(self) -> int:
        total = 0
        seen = {}
        for i in range(5000):
            seen[i & 1023] = total
            total += (i * 7) % 13
        heap = [(float(i % 97), i) for i in range(100)]
        heapq.heapify(heap)
        nodes, table = self._nodes, self._table
        first = self._step
        for step in range(first, first + 220):
            now, query = heapq.heappop(heap)
            best, best_done = None, 1e300
            for j in range(6):
                node = nodes[table[(query * 7 + j * 131 + step) % 40000]]
                done = node.offer(now, 1.0 + (query % 5) * 0.25)
                if done < best_done:
                    best, best_done = node, done
            best.busy = best_done * 1e-9
            best.done += 1
            best.price = best.price * 0.999 + 0.001
            best.queue.append(query)
            if len(best.queue) > 8:
                del best.queue[:4]
            heapq.heappush(heap, (now + 3.7 + (query % 11), query + 400))
        self._step = (first + 220) % 1_000_000
        return total


class Sampler:
    """Times ``reference.chunk`` every ``INTERVAL_S`` inside a ``with`` block.

    One chunk is also timed on entry and on exit, outside whatever the
    block times, so even a run shorter than the interval has two samples.
    The handler runs in the main thread between two bytecodes of the
    measured call; forked workers inherit no timer.

    On an engine with worker processes the chunks run on the coordinator's
    core, next to the busy workers (three processes on two sibling cores
    read ~1.3x slower than one), so there a reference second is a second
    of an *uncontended coordinator core*: see README "Reference seconds"
    for what that hides.
    """

    def __init__(self, reference: Reference) -> None:
        self._reference = reference
        self.chunks: List[float] = []
        #: Seconds the timer-driven chunks took: inside the timed call.
        self.inside_s = 0.0

    def sample(self) -> float:
        """Time one chunk now (the traced pass samples between its runs)."""
        started = time.perf_counter()
        self._reference.chunk()
        taken = time.perf_counter() - started
        self.chunks.append(taken)
        return taken

    def _tick(self, signum, frame) -> None:
        self.inside_s += self.sample()

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    @property
    def slowdown(self) -> float:
        """Mean chunk time of the block over the quiet reference's."""
        return statistics.fmean(self.chunks) / REFERENCE_CHUNK_S

    @property
    def stretch(self) -> float:
        """Estimated factor by which the host stretched the timed call."""
        return self.slowdown**SENSITIVITY
