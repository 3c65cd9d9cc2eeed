"""Span tracer that wraps public seams of ``repro`` from the outside.

The benchmark measures layers without touching ``src/``: a seam is a
dotted name (``repro.sim.shards.ShardTransport.exchange``) resolved at
run time and replaced, for the duration of one traced pass, by a wrapper
that records a span.  A span is ``(layer, start, end, parent)``; spans
stay in memory until the caller writes them out.  A layer's *self time*
is its spans' duration minus the part their child spans cover, so the
self times of all layers under one root add up to the root's duration.

Wrappers live in the process that installed them.  Install run-time
seams only after the engine has forked its workers: a worker forked
earlier keeps the unwrapped functions, so shard-side work is never
slowed by tracing (it is read from the engine's own counters instead).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence

__all__ = ["LayerStats", "Seam", "Tracer", "resolve"]

_ABSENT = object()


@dataclass(frozen=True)
class Seam:
    """One public callable to wrap: spans go to ``layer``.

    ``count`` optionally maps ``(args, result)`` of each call to a number
    accumulated in :attr:`Tracer.counters` under ``layer`` (bytes framed,
    events processed): counts taken where the work happens.
    """

    layer: str
    target: str
    count: Optional[Callable[[tuple, object], float]] = None


@dataclass
class LayerStats:
    """Aggregate of one layer's spans."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def resolve(target: str):
    """``(owner, attribute, value)`` of a dotted seam name.

    The longest importable prefix is the module; the rest is an attribute
    chain (module function, or ``Class.method``).  Raises ``ImportError``
    or ``AttributeError`` when the seam does not exist.
    """
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name)
        return owner, parts[-1], getattr(owner, parts[-1])
    raise ImportError("no importable module in %r" % target)


class Tracer:
    """In-memory span recorder plus the seam patcher that feeds it."""

    def __init__(self) -> None:
        self.layers: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        #: Per-layer sums of the seams' ``count`` callbacks.
        self.counters: Dict[str, float] = {}
        #: ``layer -> reason`` for every seam that could not be resolved.
        self.missing: Dict[str, str] = {}
        self._stack: List[int] = []

    # -- recording -----------------------------------------------------------

    def _open(self, layer: str) -> int:
        index = len(self.layers)
        self.layers.append(layer)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(index)
        return index

    @contextlib.contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """Record a span around the benchmark's own call into a layer."""
        index = self._open(layer)
        self.starts[index] = time.perf_counter()
        try:
            yield
        finally:
            self.ends[index] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, seam: Seam, fn: Callable) -> Callable:
        layer, count = seam.layer, seam.count
        open_span, stack = self._open, self._stack
        starts, ends, counters = self.starts, self.ends, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = open_span(layer)
            starts[index] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if count is not None:
                counters[layer] = counters.get(layer, 0.0) + count(
                    args, result
                )
            return result

        return traced

    # -- patching ------------------------------------------------------------

    @contextlib.contextmanager
    def patched(self, seams: Sequence[Seam]) -> Iterator[None]:
        """Wrap ``seams`` for the duration of the block, then restore.

        A function seam is replaced on every loaded ``repro`` module that
        holds the same object (``from x import f`` copies the binding).
        Restoration is checked: each patched attribute must still hold
        our wrapper on exit and the original object afterwards.
        """
        patches = []  # (owner, attribute, original-or-_ABSENT, wrapper)
        for seam in seams:
            try:
                owner, attribute, value = resolve(seam.target)
            except (ImportError, AttributeError) as error:
                self.missing[seam.layer] = "%s: %s" % (seam.target, error)
                print(
                    "perf: warning: seam %s is gone (%s); its metrics read null"
                    % (seam.target, error),
                    file=sys.stderr,
                )
                continue
            wrapper = self._wrap(seam, value)
            if isinstance(owner, type):
                holders = [owner]
            else:
                holders = [
                    module
                    for name, module in list(sys.modules.items())
                    if name.split(".")[0] == owner.__name__.split(".")[0]
                    and vars(module).get(attribute) is value
                ]
            for holder in holders:
                patches.append(
                    (holder, attribute, vars(holder).get(attribute, _ABSENT), wrapper)
                )
                setattr(holder, attribute, wrapper)
        try:
            yield
        finally:
            for holder, attribute, original, wrapper in reversed(patches):
                if vars(holder).get(attribute) is not wrapper:
                    raise RuntimeError(
                        "%s.%s was re-patched during the traced pass"
                        % (holder.__name__, attribute)
                    )
                if original is _ABSENT:  # inherited: drop our override
                    delattr(holder, attribute)
                else:
                    setattr(holder, attribute, original)
                if vars(holder).get(attribute, _ABSENT) is not original:
                    raise RuntimeError(
                        "%s.%s was not restored" % (holder.__name__, attribute)
                    )

    # -- reading -------------------------------------------------------------

    def stats(self) -> Dict[str, LayerStats]:
        """Per-layer call count, inclusive time and self time."""
        covered = [0.0] * len(self.layers)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += self.ends[index] - self.starts[index]
        result: Dict[str, LayerStats] = {}
        for index, layer in enumerate(self.layers):
            duration = self.ends[index] - self.starts[index]
            entry = result.setdefault(layer, LayerStats())
            entry.calls += 1
            entry.total_s += duration
            entry.self_s += duration - covered[index]
        return result

    def write_jsonl(self, handle, **extra) -> None:
        """One JSON object per span (``extra`` keys on every line)."""
        for index, layer in enumerate(self.layers):
            row = {
                "span": index,
                "layer": layer,
                "start_s": self.starts[index],
                "end_s": self.ends[index],
                "parent": self.parents[index],
            }
            row.update(extra)
            handle.write(json.dumps(row) + "\n")
