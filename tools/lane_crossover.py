#!/usr/bin/env python3
"""Where the scalar Def. 4 exchange stops beating the lane book.

``market_tick.SCALAR_LANES_MAX`` is a measured constant; this command is
the measurement.  It times one request-for-bid exchange, in
microseconds, through ``LaneBook`` (numpy arrays, as shipped: it prices
its live lanes only) and ``exchange_lanes_scalar`` (``memoryview``s of
the same arrays, as a ``LaneBlock`` binds them) at lane counts 2 … 128,
with none, half and all of the lanes out of supply, with none and 0.9 of
those already settled at the cap, with and without the activation
threshold, and prints the tables plus the widest class up to which the
scalar loop is no slower than the book in every column.  A second table
repeats the half-refusing column with every other lane unreached (an
outage window's partial fan-out).  A last table times the book's own two
ways of pricing a live set (array steps / the loop) inside a wide class,
the other place the constant decides.  Takes about fifteen seconds;
stdlib + numpy.

    python3 tools/lane_crossover.py        (or: make crossover)
"""

from __future__ import annotations

import argparse
import os
import pathlib
import platform
import sys
import time
from typing import Optional, Sequence

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.allocation.market_tick import (  # noqa: E402
    SCALAR_LANES_MAX,
    LaneBook,
    exchange_lanes_scalar,
    scalar_lanes,
)

WIDTHS = (2, 3, 4, 5, 8, 12, 16, 24, 32, 48, 64, 96, 128)
#: (fraction of lanes refusing, fraction of those settled) per table column.
COLUMNS = ((0.0, 0.0), (0.5, 0.0), (0.5, 0.9), (1.0, 0.0), (1.0, 0.9))
THRESHOLDS = (None, 2.0)
#: Lanes with supply around the live set of the last table.
WIDE = 128
#: Exchanges per timed round — fewer than the 218 raises that take a
#: price from 1 to the cap, so no lane settles inside a round — and timed
#: rounds per cell (the best is kept).
REPS, ROUNDS = 200, 25
FACTOR, FLOOR, CAP = 1.1, 0.01, 1e9


def exchange_us(
    kernel: str,
    supplied: int,
    refusing: int,
    settled: float,
    threshold: Optional[float],
    scalar_max: int = SCALAR_LANES_MAX,
    masked: bool = False,
) -> float:
    """Best-of-``ROUNDS`` mean microseconds of ``REPS`` exchanges on one
    class of ``supplied`` lanes with supply and ``refusing`` without,
    ``settled`` of the latter priced at the cap from the start, reaching
    every lane (``masked``: every other one); the market state is reset
    between rounds, not between calls, so the other refusing lanes raise
    and latch as in a period."""
    lanes = supplied + refusing
    rows = np.arange(lanes) * 2 + 1  # odd rows of wider per-agent arrays
    supply = np.zeros(lanes)
    supply[:supplied] = 1e9
    prices = np.ones(lanes)
    prices[lanes - int(round(refusing * settled)):] = CAP
    R, V = supply.copy(), prices.copy()
    costs = np.linspace(100.0, 900.0, lanes)
    maxp, locked = np.ones(2 * lanes + 1), np.zeros(2 * lanes + 1, dtype=bool)
    free_at = np.zeros(2 * lanes + 1)
    reached = np.arange(lanes) % 2 == 0 if masked else None
    terms = FACTOR, FLOOR, CAP, threshold
    if kernel == "scalar":
        views = (
            *scalar_lanes(R, V, rows, costs),
            *map(memoryview, (maxp, locked, free_at)),
        )
        # As `LaneBlock.exchange` passes them.
        hits = [True] * lanes if reached is None else memoryview(reached)

        def exchange():
            exchange_lanes_scalar(*views, hits, 5.0, *terms)
    else:
        book = LaneBook(rows, costs, maxp, locked, *terms)
        book._scalar_max = scalar_max

        def exchange():
            book.exchange(book.estimates(free_at, 5.0), reached)
    best = float("inf")
    for _ in range(ROUNDS):
        R[:], V[:], locked[:] = supply, prices, False
        maxp[rows] = prices
        if kernel == "book":
            book.arm(R, V)
        start = time.perf_counter()
        for _ in range(REPS):
            exchange()
        best = min(best, time.perf_counter() - start)
    return best / REPS * 1e6


def main(argv: Optional[Sequence[str]] = None) -> int:
    argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        epilog="No options.  The constant is not a knob: this only re-measures it.",
    ).parse_args(argv)
    print(
        "host: nproc=%s python=%s numpy=%s; SCALAR_LANES_MAX=%d"
        % (os.cpu_count(), platform.python_version(), np.__version__,
           SCALAR_LANES_MAX)
    )
    print(
        "us per exchange, book/scalar; columns = refusing fraction"
        " (settled fraction of those)"
    )
    header = "lanes " + "".join(
        ("%g(%g)" % column).rjust(12) for column in COLUMNS
    )
    table = {
        (threshold, lanes): [
            tuple(
                exchange_us(
                    kernel, lanes - int(round(lanes * refusing)),
                    int(round(lanes * refusing)), settled, threshold,
                )
                for kernel in ("book", "scalar")
            )
            for refusing, settled in COLUMNS
        ]
        for threshold in THRESHOLDS
        for lanes in WIDTHS
    }
    for threshold in THRESHOLDS:
        print("threshold %s\n%s" % (threshold, header))
        for lanes in WIDTHS:
            print("%5d " % lanes + "".join(
                ("%.1f/%.1f" % cell).rjust(12)
                for cell in table[threshold, lanes]
            ))
    widest, holding = 0, True
    for lanes in WIDTHS:
        holding = holding and all(
            scalar <= book
            for threshold in THRESHOLDS
            for book, scalar in table[threshold, lanes]
        )
        if holding:
            widest = lanes
    print("scalar <= book in every column up to %d lanes" % widest)
    print(
        "us per exchange reaching every other lane, book/scalar"
        " (refusing 0.5, threshold 2.0)"
    )
    for lanes in WIDTHS:
        cell = tuple(
            exchange_us(
                kernel, lanes - lanes // 2, lanes // 2, 0.0, 2.0, masked=True
            )
            for kernel in ("book", "scalar")
        )
        print("%5d %s" % (lanes, ("%.1f/%.1f" % cell).rjust(12)))
    print(
        "us per book exchange, %d supplied lanes + a live set priced by"
        " array steps/by the loop (threshold 2.0)" % WIDE
    )
    for live in WIDTHS:
        steps, loop = (
            exchange_us("book", WIDE, live, 0.0, 2.0, scalar_max)
            for scalar_max in (0, 10 ** 9)
        )
        print("%5d %s" % (live, ("%.1f/%.1f" % (steps, loop)).rjust(12)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
