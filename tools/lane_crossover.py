#!/usr/bin/env python3
"""Where the scalar Def. 4 exchange stops beating the array program.

``market_tick.SCALAR_LANES_MAX`` is a measured constant; this command is
the measurement.  It times one request-for-bid exchange, in microseconds,
through ``exchange_lanes`` (numpy arrays) and ``exchange_lanes_scalar``
(``memoryview``s of the same arrays, as a shard plane binds them) at lane
counts 2 … 128, with none, half and all of the lanes out of supply, with
and without the activation threshold, and prints the table plus the
widest class up to which the scalar loop takes at most half the array
program's time in every column.  Takes under ten seconds; stdlib + numpy.

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
    exchange_lanes,
    exchange_lanes_scalar,
    scalar_lanes,
)

WIDTHS = (2, 3, 4, 5, 8, 12, 16, 24, 32, 48, 64, 96, 128)
#: (fraction of lanes refusing, activation threshold) per table column.
COLUMNS = [(f, t) for t in (None, 2.0) for f in (0.0, 0.5, 1.0)]
#: Exchanges per timed round, and timed rounds per cell (the best is kept).
REPS, ROUNDS = 600, 9


def exchange_us(
    kernel, lanes: int, refusing: float, threshold: Optional[float]
) -> float:
    """Best-of-``ROUNDS`` mean microseconds of ``REPS`` exchanges on one
    class; the market state is reset between rounds, not between calls,
    so refusing lanes raise, latch and run into the cap as in a period."""
    rows = np.arange(lanes) * 2 + 1  # odd rows of wider per-agent arrays
    supply = np.zeros(lanes)
    supply[: lanes - int(round(lanes * refusing))] = 1e9
    R, V = supply.copy(), np.ones(lanes)
    costs = np.linspace(100.0, 900.0, lanes)
    maxp, locked = np.ones(2 * lanes + 1), np.zeros(2 * lanes + 1, dtype=bool)
    free_at = np.zeros(2 * lanes + 1)
    args = (R, V, rows, costs, maxp, locked, free_at)
    if kernel is exchange_lanes_scalar:
        args = scalar_lanes(*args)
    best = float("inf")
    for _ in range(ROUNDS):
        R[:], V[:], maxp[:], locked[:] = supply, 1.0, 1.0, False
        start = time.perf_counter()
        for _ in range(REPS):
            kernel(*args, 5.0, 1.1, 0.01, 1e9, threshold)
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
    print("us per exchange, array/scalar; columns = refusing fraction @ threshold")
    print("lanes " + "".join(
        ("%g@%s" % (f, t)).rjust(13) for f, t in COLUMNS
    ))
    widest, holding = 0, True
    for lanes in WIDTHS:
        cells = [
            tuple(
                exchange_us(kernel, lanes, f, t)
                for kernel in (exchange_lanes, exchange_lanes_scalar)
            )
            for f, t in COLUMNS
        ]
        print("%5d " % lanes + "".join(
            ("%.1f/%.1f" % cell).rjust(13) for cell in cells
        ))
        holding = holding and all(s <= a / 2.0 for a, s in cells)
        if holding:
            widest = lanes
    print("scalar <= 1/2 array in every column up to %d lanes" % widest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
