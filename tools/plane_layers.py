#!/usr/bin/env python3
"""Seconds per run inside the market planes, layer by layer.

The repo benchmark's traced pass (``perf/run.py --trace 1``) wraps
coordinator functions, so a forked plane's work shows there only as
``shards.shard_busy_s_*``.  This command builds the plane workloads' world
and trace (``zipf_planes_fork`` and ``zipf_planes_tcp`` share both),
runs them on the inline twin of the engine (``Prepared.twin("inline")``:
the same planes, every one in this process), wraps six
``_MarketPlane`` methods and the coordinator's digest
(``ShardedRunResult.outcome_digest``) with timers and prints, per
mechanism, the median seconds per run of each over ``--runs`` runs after
one warm-up run, beside the whole run.  Times are inclusive:
``run_slice`` prices the arrivals and holds every ``boundary`` that
falls due inside the trace (the rest, the drain's, run under
``finish``, which is not timed); ``boundary`` holds ``_period_solve``
and ``_retry_tick``; ``run_slice`` and ``_retry_tick`` hold ``_replay``;
and ``collect`` is where a shard's plane renders its outcome rows, which
the digest then orders and hashes (the residual plane's rows, if any,
the digest renders itself).  Greedy takes no boundaries.

A reading, not a gate; the timers add a little to every call.

    python3 tools/plane_layers.py --seed 0 --runs 5     (or: make plane-layers)
"""

from __future__ import annotations

import argparse
import pathlib
import statistics
import sys
import time
from typing import Dict, List

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO), str(REPO / "src")]

from perf.workloads import WORKLOADS, prepare  # noqa: E402
from repro.sim.shards import ShardedRunResult  # noqa: E402
from repro.sim.shards.plane import _MarketPlane  # noqa: E402

#: Timed methods, by label: the owner and the method's name.
WRAPPED = {
    "_MarketPlane." + name: (_MarketPlane, name)
    for name in (
        "run_slice", "boundary", "_period_solve", "_retry_tick", "_replay",
        "collect",
    )
}
WRAPPED["ShardedRunResult.outcome_digest"] = (ShardedRunResult, "outcome_digest")
LAYERS = tuple(WRAPPED)
MECHANISMS = ("qa-nt", "greedy")


def timed_runs(twin, mechanism: str, runs: int) -> Dict[str, List[float]]:
    """Per layer (and ``run``, the whole run), the seconds of each of
    ``runs`` runs of ``mechanism`` on ``twin``, after one warm-up run."""
    spent = dict.fromkeys(LAYERS, 0.0)
    originals = {
        label: getattr(owner, name) for label, (owner, name) in WRAPPED.items()
    }

    def timer(name, method):
        def timed(*args):
            started = time.perf_counter()
            try:
                return method(*args)
            finally:
                spent[name] += time.perf_counter() - started

        return timed

    seconds: Dict[str, List[float]] = {name: [] for name in ("run",) + LAYERS}
    try:
        for label, method in originals.items():
            setattr(*WRAPPED[label], timer(label, method))
        for attempt in range(runs + 1):
            spent.update(dict.fromkeys(LAYERS, 0.0))
            started = time.perf_counter()
            twin.run(mechanism)
            if attempt:  # the first run warms up
                seconds["run"].append(time.perf_counter() - started)
                for name in LAYERS:
                    seconds[name].append(spent[name])
    finally:
        for label, method in originals.items():
            setattr(*WRAPPED[label], method)
    return seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--runs", type=int, default=5, help="timed runs per mechanism"
    )
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    prepared = prepare(WORKLOADS["zipf_planes_fork"], args.seed)
    prepared.close()  # only its world and trace are used
    twin = prepared.twin("inline")
    try:
        medians = {
            mechanism: {
                name: statistics.median(values)
                for name, values in timed_runs(twin, mechanism, args.runs).items()
            }
            for mechanism in MECHANISMS
        }
    finally:
        twin.close()
    print(
        "plane layers, zipf_planes inline twin, seed %d: median s per run "
        "of %d" % (args.seed, args.runs)
    )
    print("%-32s %10s %10s" % ("layer", *MECHANISMS))
    for name in LAYERS + ("run",):
        label = "whole run" if name == "run" else name
        print(
            "%-32s %10.4f %10.4f"
            % (label, *(medians[m][name] for m in MECHANISMS))
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
