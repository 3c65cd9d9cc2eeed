#!/usr/bin/env python3
"""Speedup of one repo-benchmark workload from CPU set A to CPU set B.

Runs N alternating pairs of

    python3 perf/run.py --workload W --seed S --seconds T --trace 0

in this working tree through ``tools/perf_pairs.py``'s ``run_once``, one
run pinned to CPU set A and one to set B per pair (``os.sched_setaffinity``
in the child before it starts, so shard workers inherit the set and
``shards._claim_cpu`` pins each one inside it), swapping which set goes
first every pair.  Then it prints, for every end-to-end metric of
``BENCHMARK.json``, the median and interquartile range of the per-pair
speedup B over A (above 1 = set B is better, for "lower is better"
metrics too), with ``os.cpu_count()`` and both sets.
The ``sim_*`` rows must read exactly 1: the CPU set changes only speed.

A reading, not a gate.  Defaults: A is the lowest CPU this process may
run on, B every CPU it may run on.

    python3 tools/cpu_scaling.py --workload zipf_planes_fork --pairs 5
    python3 tools/cpu_scaling.py --workload zipf_planes_fork --cpus-a 0 --cpus-b 0-1
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, FrozenSet, List, Optional, Sequence

from perf_pairs import REPO, quartiles, run_once


def parse_cpus(text: str) -> FrozenSet[int]:
    """A CPU list such as ``0``, ``0,2`` or ``0-3,6`` as a set of ids."""
    cpus = set()
    for part in text.split(","):
        first, dash, last = part.strip().partition("-")
        if not first.isdigit() or (dash and not last.isdigit()):
            raise argparse.ArgumentTypeError("not a CPU list: %r" % text)
        lo = int(first)
        hi = int(last) if dash else lo
        if hi < lo:
            raise argparse.ArgumentTypeError("descending CPU range in %r" % text)
        cpus.update(range(lo, hi + 1))
    return frozenset(cpus)


def format_cpus(cpus: FrozenSet[int]) -> str:
    return ",".join(map(str, sorted(cpus)))


def speedup(metric: dict, on_a: float, on_b: float) -> float:
    """B over A, oriented so that above 1 means B is better."""
    if metric["better"] == "higher":
        return on_b / on_a
    return on_a / on_b


def summarise(metrics: List[dict], runs: Dict[str, List[dict]]) -> List[dict]:
    """Per end-to-end metric: the median and IQR of the pairs' speedups."""
    rows = []
    for metric in metrics:
        name = metric["name"]
        ratios = [
            speedup(metric, a["metrics"][name]["value"], b["metrics"][name]["value"])
            for a, b in zip(runs["A"], runs["B"])
        ]
        q1, median, q3 = quartiles(ratios)
        rows.append(
            {
                "name": name,
                "better": metric["better"],
                "median": median,
                "iqr": q3 - q1,
                "q1": q1,
                "q3": q3,
            }
        )
    return rows


def render(rows: List[dict], runs: Dict[str, List[dict]]) -> str:
    lines = ["%-44s %9s %9s  %s" % ("metric (speedup B / A)", "median", "IQR", "[q1, q3]")]
    for row in rows:
        lines.append(
            "%-44s %9.3f %9.3f  [%.3f, %.3f]"
            % (
                "%s (%s)" % (row["name"], row["better"]),
                row["median"],
                row["iqr"],
                row["q1"],
                row["q3"],
            )
        )
    for side, side_runs in runs.items():
        lines.append(
            "set %s: failed %d of %d attempted"
            % (
                side,
                sum(run["failed"] for run in side_runs),
                sum(run["attempted"] for run in side_runs),
            )
        )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text())
    allowed = frozenset(os.sched_getaffinity(0))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=[w["name"] for w in benchmark["workloads"]],
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument(
        "--seconds",
        type=float,
        default=float(benchmark["run_seconds"]),
        help="measured seconds per pass (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--cpus-a",
        type=parse_cpus,
        default=frozenset([min(allowed)]),
        metavar="LIST",
        help="CPU set A, e.g. 0 or 0-1,4 (default: %d)" % min(allowed),
    )
    parser.add_argument(
        "--cpus-b",
        type=parse_cpus,
        default=allowed,
        metavar="LIST",
        help="CPU set B (default: every allowed CPU, %s)" % format_cpus(allowed),
    )
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    sets = {"A": args.cpus_a, "B": args.cpus_b}
    for side, cpus in sets.items():
        if not cpus <= allowed:
            parser.error(
                "set %s (%s) is not inside the allowed CPUs %s"
                % (side, format_cpus(cpus), format_cpus(allowed))
            )

    runs: Dict[str, List[dict]] = {"A": [], "B": []}
    for pair in range(args.pairs):
        for side in ("A", "B") if pair % 2 == 0 else ("B", "A"):
            result = run_once(
                REPO, args.workload, args.seed, args.seconds, cpus=sets[side]
            )
            runs[side].append(result)
            print(
                "pair %d/%d set %s (%s) %s"
                % (
                    pair + 1,
                    args.pairs,
                    side,
                    format_cpus(sets[side]),
                    " ".join(
                        "%s=%.6g" % (m["name"], result["metrics"][m["name"]]["value"])
                        for m in benchmark["end_to_end"][:4]
                    ),
                ),
                file=sys.stderr,
            )
    rows = summarise(benchmark["end_to_end"], runs)
    print(
        "%s seed %d, %d pairs, %.0f s per pass; cpu_count %d, set A %s, set B %s"
        % (
            args.workload,
            args.seed,
            args.pairs,
            args.seconds,
            os.cpu_count(),
            format_cpus(sets["A"]),
            format_cpus(sets["B"]),
        )
    )
    print(render(rows, runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
