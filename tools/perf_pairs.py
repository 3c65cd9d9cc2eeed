#!/usr/bin/env python3
"""Alternating parent/change pairs of one repo-benchmark workload.

The protocol behind every performance claim in CHANGES.md, as a command:
export the parent commit into a temporary directory, then run

    python3 perf/run.py --workload W --seed S --seconds T --trace 0

once in each tree per pair, swapping which side goes first every pair (so
warm-up, thermal drift and background load fall on both sides alike), and
print for every end-to-end metric of ``BENCHMARK.json`` both sides'
medians and quartiles, how many pairs the change won (ties count for
neither side), whether the medians are further apart than the parent's
own interquartile range (and which way), whether the change stays
inside the metric's regression bound, and whether either side's runs
spread (interquartile range) past ``bound x parent median`` — then the
comparison cannot be resolved and the verdict says ``SPREAD``: a metric
that got much better carries its relative noise to a larger absolute
one, so a change has to be *steadier* than its parent, relatively, to
stay resolvable.  ``correct`` / ``failed`` of every run are summed per
side: a gain does not count when more operations fail.

Every run also writes its full result object (``--out``), and the tool
prints, per side, the median *measured* value (``raw``: before the host
slowdown is divided out) of every metric that carries one, and the
median ``host_slowdown_ratio``.  perf/README asks for both beside any
gain claimed on ``zipf_planes_*``, where the slowdown chunks share a
core with the shard workers.

Each tree runs its *own* ``perf/`` — the driver does the same — so the
comparison is only meaningful while ``perf/`` is identical on both sides
(the tool says so when it is not).

``--layers name[,name...]`` adds the before/after at the layer a change
touches: after the pairs, one ``--trace 1`` pass per tree, printing
parent -> change for the named ``per_layer`` rows of ``BENCHMARK.json``.
One traced pass is a reading of where time goes, not a verdict — counts
repeat exactly, timings carry the run-to-run spread the pairs show.

    python3 tools/perf_pairs.py --parent HEAD~1 --workload tick1000_single \\
        --seed 0 --pairs 10 --layers market_tick.exchange_s,engine.self_s
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, FrozenSet, List, Optional, Sequence

REPO = pathlib.Path(__file__).resolve().parent.parent


def export_tree(ref: str, target: pathlib.Path) -> None:
    """Unpack commit ``ref`` of this repository into ``target``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", ref],
        cwd=REPO,
        check=True,
        stdout=subprocess.PIPE,
    )
    subprocess.run(
        ["tar", "-x", "-C", str(target)], input=archive.stdout, check=True
    )


def same_benchmark(parent: pathlib.Path, change: pathlib.Path) -> bool:
    """Whether both trees carry byte-identical ``perf/`` sources."""

    def sources(tree: pathlib.Path) -> Dict[str, bytes]:
        return {
            str(path.relative_to(tree)): path.read_bytes()
            for path in sorted((tree / "perf").rglob("*.py"))
        }

    return sources(parent) == sources(change)


def run_once(
    tree: pathlib.Path,
    workload: str,
    seed: int,
    seconds: float,
    trace: int = 0,
    out: Optional[pathlib.Path] = None,
    cpus: Optional[FrozenSet[int]] = None,
) -> dict:
    """One benchmark run in ``tree``; the driver's result line
    (``trace=0``: end-to-end metrics, ``trace=1``: the per-layer
    ledger).  With ``out``, the run also writes its full result object
    there (:func:`full_result` reads it).  With ``cpus``, the child is
    pinned to that CPU set (``os.sched_setaffinity``) before it starts,
    so its shard workers inherit the set."""
    command = [
        sys.executable,
        "perf/run.py",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    if out is not None:
        command += ["--out", str(out)]
    done = subprocess.run(
        command,
        cwd=tree,
        check=True,
        stdout=subprocess.PIPE,
        text=True,
        preexec_fn=None if cpus is None else lambda: os.sched_setaffinity(0, cpus),
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def full_result(out: pathlib.Path, workload: str, trace: int = 0) -> dict:
    """The full result object a ``--out`` run wrote: unlike the driver
    line it keeps each rate's measured median (``raw``) and the
    report-only ``host_slowdown_ratio``."""
    return json.loads(
        (out / ("result-%s-trace%d.json" % (workload, trace))).read_text()
    )


def quartiles(values: Sequence[float]) -> tuple:
    """``(q1, median, q3)``; a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarise(
    metric: dict, parent: List[float], change: List[float]
) -> dict:
    """Pairwise verdict of one end-to-end metric."""
    higher = metric["better"] == "higher"
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gain = (c_med - p_med) if higher else (p_med - c_med)
    worse_by = -gain / abs(p_med) if p_med else 0.0
    return {
        "name": metric["name"],
        "unit": metric["unit"],
        "better": metric["better"],
        "parent": {"median": p_med, "q1": p_q1, "q3": p_q3},
        "change": {"median": c_med, "q1": c_q1, "q3": c_q3},
        "ratio": c_med / p_med if p_med else None,
        "wins": wins,
        "decided_pairs": len(parent) - ties,
        "identical": ties == len(parent),
        # Signed towards "better": positive = the change's median is
        # better than the parent's by this much.
        "gain": gain,
        "parent_iqr": p_q3 - p_q1,
        "change_iqr": c_q3 - c_q1,
        "within_bound": worse_by <= metric["bound"],
        # The widest interquartile range the comparison can carry.
        "spread_bound": metric["bound"] * abs(p_med),
    }


def render(rows: List[dict], sides: Dict[str, List[dict]]) -> str:
    lines = [
        "%-44s %-30s %-30s %7s %7s  %s"
        % ("metric", "parent median [q1, q3]", "change median [q1, q3]",
           "ratio", "wins", "verdict")
    ]
    for row in rows:
        cells = [
            "%.6g [%.6g, %.6g]" % (side["median"], side["q1"], side["q3"])
            for side in (row["parent"], row["change"])
        ]
        if row["identical"]:
            verdict = "identical"
        else:
            if abs(row["gain"]) <= row["parent_iqr"]:
                spread = "inside parent IQR"
            else:
                spread = "%s beyond parent IQR" % (
                    "better" if row["gain"] > 0 else "worse"
                )
            verdict = "%s, %s bound" % (
                spread, "within" if row["within_bound"] else "OUTSIDE"
            )
            for side in ("parent", "change"):
                if row[side + "_iqr"] > row["spread_bound"]:
                    verdict += ", SPREAD: %s IQR %.6g > %.6g" % (
                        side, row[side + "_iqr"], row["spread_bound"]
                    )
        lines.append(
            "%-44s %-30s %-30s %7s %7s  %s"
            % (
                "%s (%s, %s)" % (row["name"], row["unit"], row["better"]),
                cells[0],
                cells[1],
                "-" if row["ratio"] is None else "%.3f" % row["ratio"],
                "%d/%d" % (row["wins"], row["decided_pairs"]),
                verdict,
            )
        )
    for side, runs in sides.items():
        lines.append(
            "%s: correct %d/%d runs, failed %d of %d attempted"
            % (
                side,
                sum(bool(run["correct"]) for run in runs),
                len(runs),
                sum(run["failed"] for run in runs),
                sum(run["attempted"] for run in runs),
            )
        )
    return "\n".join(lines)


def render_layers(layers: List[dict], traced: Dict[str, dict]) -> str:
    """Parent -> change of the named per-layer rows, one traced pass each."""
    lines = ["%-44s %14s %14s %7s" % ("layer", "parent", "change", "ratio")]
    for layer in layers:
        before, after = (
            traced[side]["metrics"][layer["name"]]["value"]
            for side in ("parent", "change")
        )
        lines.append(
            "%-44s %14.6g %14.6g %7s"
            % (
                "%s (%s, %s)" % (layer["name"], layer["unit"], layer["better"]),
                before,
                after,
                "%.3f" % (after / before) if before else "-",
            )
        )
    return "\n".join(lines)


def measured_rows(sides: Dict[str, List[dict]]) -> List[dict]:
    """Per side, the median ``raw`` of every metric that has one and the
    median ``host_slowdown_ratio``, from the runs' full results."""
    first = sides["parent"][0]["metrics"]
    names = [name for name, entry in first.items() if "raw" in entry]
    rows = []
    for name, key in [(name, "raw") for name in names] + [
        ("host_slowdown_ratio", "value")
    ]:
        medians = {
            side: statistics.median(run["metrics"][name][key] for run in runs)
            for side, runs in sides.items()
        }
        rows.append({"name": name, "key": key, **medians})
    return rows


def render_measured(rows: List[dict]) -> str:
    lines = [
        "%-44s %14s %14s %7s"
        % ("measured median (raw) / host", "parent", "change", "ratio")
    ]
    for row in rows:
        lines.append(
            "%-44s %14.6g %14.6g %7s"
            % (
                row["name"] + (" (raw)" if row["key"] == "raw" else ""),
                row["parent"],
                row["change"],
                "%.3f" % (row["change"] / row["parent"]) if row["parent"] else "-",
            )
        )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text())
    per_layer = {layer["name"]: layer for layer in benchmark["per_layer"]}

    def layer_rows(text: str) -> List[dict]:
        names = text.split(",")
        unknown = [name for name in names if name not in per_layer]
        if unknown:
            raise argparse.ArgumentTypeError(
                "unknown per-layer metric %s; BENCHMARK.json has: %s"
                % (", ".join(unknown), ", ".join(per_layer))
            )
        return [per_layer[name] for name in names]

    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        epilog="See the module docstring for the protocol.",
    )
    parser.add_argument("--parent", required=True, help="git ref to compare against")
    parser.add_argument(
        "--workload",
        required=True,
        choices=[w["name"] for w in benchmark["workloads"]],
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument(
        "--seconds",
        type=float,
        default=float(benchmark["run_seconds"]),
        help="measured seconds per pass (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--change",
        default=str(REPO),
        help="tree of the change (default: this working tree, uncommitted edits included)",
    )
    parser.add_argument(
        "--layers",
        type=layer_rows,
        default=[],
        metavar="NAME[,NAME...]",
        help="per_layer rows of BENCHMARK.json to read from one traced pass per tree",
    )
    parser.add_argument("--json", help="also write every run and the summary here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    change_tree = pathlib.Path(args.change).resolve()
    runs: Dict[str, List[dict]] = {"parent": [], "change": []}
    full: Dict[str, List[dict]] = {"parent": [], "change": []}
    traced: Dict[str, dict] = {}
    with tempfile.TemporaryDirectory(prefix="perf-pairs-") as scratch:
        parent_tree = pathlib.Path(scratch) / "parent"
        parent_tree.mkdir()
        export_tree(args.parent, parent_tree)
        if not same_benchmark(parent_tree, change_tree):
            print(
                "perf_pairs: warning: perf/ differs between the two trees; "
                "each side is measured by its own benchmark",
                file=sys.stderr,
            )
        trees = {"parent": parent_tree, "change": change_tree}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                out = pathlib.Path(scratch) / ("%s-%d" % (side, pair))
                result = run_once(
                    trees[side], args.workload, args.seed, args.seconds, out=out
                )
                runs[side].append(result)
                full[side].append(full_result(out, args.workload))
                print(
                    "pair %d/%d %-6s %s"
                    % (
                        pair + 1,
                        args.pairs,
                        side,
                        " ".join(
                            "%s=%.6g" % (m["name"], result["metrics"][m["name"]]["value"])
                            for m in benchmark["end_to_end"][:5]
                        ),
                    ),
                    file=sys.stderr,
                )
        if args.layers:
            for side, tree in trees.items():
                traced[side] = run_once(
                    tree, args.workload, args.seed, args.seconds, trace=1
                )
    rows = [
        summarise(
            metric,
            [run["metrics"][metric["name"]]["value"] for run in runs["parent"]],
            [run["metrics"][metric["name"]]["value"] for run in runs["change"]],
        )
        for metric in benchmark["end_to_end"]
    ]
    print(
        "%s seed %d, %d pairs, %.0f s per pass, parent %s"
        % (args.workload, args.seed, args.pairs, args.seconds, args.parent)
    )
    print(render(rows, runs))
    measured = measured_rows(full)
    print(render_measured(measured))
    if args.layers:
        print(render_layers(args.layers, traced))
    if args.json:
        pathlib.Path(args.json).write_text(
            json.dumps(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "parent": args.parent,
                    "summary": rows,
                    "measured": measured,
                    "runs": runs,
                    "traced": traced,
                },
                indent=2,
            )
            + "\n"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
