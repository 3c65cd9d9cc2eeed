#!/usr/bin/env python3
"""Fig. 6 read against the two deployment constants of QA-NT's market.

Two constants the paper fixes nowhere decide QA-NT's behaviour where
Fig. 6 deviates (EXPERIMENTS.md known deviations 6 and 8): the backlog
allowance factor ``f`` (:data:`repro.core.qant.DEFAULT_ALLOWANCE_FACTOR`:
a node sells supply up to period + ``f`` x its largest class cost, minus
its backlog) and §5.1's activation threshold ``t``
(:data:`repro.core.qant.DEFAULT_ACTIVATION_THRESHOLD`).  This command
sets both from outside, around each cell it runs: ``f`` on
:mod:`repro.allocation.qant`, which reads it when an allocator binds, and
``t`` as the ``activation_threshold`` of the cells' QA-NT allocator
factory (``fig6._PAIR`` / ``fig5._PAIR``).  It changes no default and
adds no option to the library.

At every ``(f, t)`` of ``f`` in {1, 2, 4, 8} x ``t`` in {2.0, off} it runs
QA-NT on

* ``fig6_paper``: the seven Fig. 6 paper points, drained to empty
  (``drain_ms=inf``, E8's recipe);
* ``fig6_small``: the small sweep's cells, deviation 8's (30 nodes,
  2,500 queries, 200 s horizon; 1 s as well, since a point's index
  seeds its trace), drained to empty;
* ``fig5a_subcapacity``: the Fig. 5a paper loads below capacity (0.1 to
  0.75), where known deviation 5 says the threshold earns its keep;

each at E8's three seeds (``run fig6 --seeds 3``).  Greedy reads neither
constant, so it runs once per cell and every ``(f, t)`` shares it.  A
cell whose drain hits the simulator's cap is recorded with its error.
It prints the greedy / QA-NT mean-response ratio per point and writes
every cell to one JSON artifact.

    python3 tools/fig6_constants.py --jobs 2 --out benchmarks/results/fig6_constants.json
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import multiprocessing
import pathlib
import statistics
import sys
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src")]

from repro.allocation import QantAllocator  # noqa: E402
from repro.allocation import qant as qant_allocation  # noqa: E402
from repro.experiments import fig5, fig6  # noqa: E402
from repro.experiments.runner import replicate_seeds  # noqa: E402
from repro.sim import FederationConfig  # noqa: E402
from repro.sim.federation import DrainCapExceeded  # noqa: E402

FACTORS = (1.0, 2.0, 4.0, 8.0)
THRESHOLDS = (2.0, None)  # None: no activation threshold
SHIPPED = (2.0, 2.0)

#: Section -> (experiment, points, the cell's fixed keyword arguments,
#: whether it drains to empty).
SECTIONS = {
    "fig6_paper": (
        "fig6",
        (10.0, 100.0, 1_000.0, 5_000.0, 10_000.0, 17_000.0, 20_000.0),
        {},
        True,
    ),
    "fig6_small": (
        "fig6",
        (1_000.0, 10_000.0, 17_000.0),
        {
            "num_nodes": 30,
            "num_relations": 300,
            "num_classes": 30,
            "max_queries": 2_500,
            "horizon_ms": 200_000.0,
        },
        True,
    ),
    "fig5a_subcapacity": ("fig5a", (0.1, 0.25, 0.5, 0.75), {"num_nodes": 100}, False),
}

#: One cell: (section, point, point_index, seed, mechanism, f, t); greedy's
#: ``f`` and ``t`` are None.
Task = Tuple[str, float, int, int, str, Optional[float], Optional[float]]


@contextlib.contextmanager
def constants(factor: float, threshold: Optional[float]) -> Iterator[None]:
    """QA-NT cells built inside run with allowance factor ``factor`` and
    activation threshold ``threshold``; both are restored on exit."""
    saved = (
        qant_allocation.DEFAULT_ALLOWANCE_FACTOR,
        fig6._PAIR["qa-nt"],
        fig5._PAIR["qa-nt"],
    )
    factory = functools.partial(QantAllocator, activation_threshold=threshold)
    qant_allocation.DEFAULT_ALLOWANCE_FACTOR = factor
    fig6._PAIR["qa-nt"] = fig5._PAIR["qa-nt"] = factory
    try:
        yield
    finally:
        (
            qant_allocation.DEFAULT_ALLOWANCE_FACTOR,
            fig6._PAIR["qa-nt"],
            fig5._PAIR["qa-nt"],
        ) = saved


@contextlib.contextmanager
def drained(on: bool) -> Iterator[None]:
    """Fig. 6 cells built inside drain to empty (``drain_ms=inf``)."""
    saved = fig6.FederationConfig
    if on:
        fig6.FederationConfig = functools.partial(FederationConfig, drain_ms=math.inf)
    try:
        yield
    finally:
        fig6.FederationConfig = saved


def run_cell(task: Task) -> Dict[str, object]:
    """One cell's numbers under its constants (greedy's: the shipped ones)."""
    section, point, point_index, seed, mechanism, factor, threshold = task
    experiment, _points, fixed, drain = SECTIONS[section]
    cell = fig6.fig6_cell if experiment == "fig6" else fig5.fig5a_cell
    if factor is None:
        factor, threshold = SHIPPED
    started = time.perf_counter()
    with constants(factor, threshold), drained(drain):
        try:
            metrics = cell(mechanism, point, point_index, seed, **fixed)
        except DrainCapExceeded as error:
            metrics = {"error": str(error)}
    metrics["wall_s"] = round(time.perf_counter() - started, 3)
    return metrics


def tasks(seeds: Sequence[int]) -> List[Task]:
    """Every cell: greedy once per (section, point, seed), then QA-NT at
    each ``(f, t)``."""
    grid = [(f, t) for f in FACTORS for t in THRESHOLDS]
    out: List[Task] = []
    for section, (_experiment, points, _fixed, _drain) in SECTIONS.items():
        for point_index, point in enumerate(points):
            for seed in seeds:
                out.append((section, point, point_index, seed, "greedy", None, None))
                out.extend(
                    (section, point, point_index, seed, "qa-nt", f, t)
                    for f, t in grid
                )
    return out


def run_grid(
    seeds: Sequence[int],
    jobs: int = 1,
    cell: Callable[[Task], Dict[str, object]] = run_cell,
    progress: Optional[Callable[[int, int, Task], None]] = None,
) -> Dict[str, object]:
    """Run :func:`tasks` on ``jobs`` forked workers (each cell sets its
    constants and restores them) and return the artifact: every cell,
    then the ratios per section, ``(f, t)`` and point."""
    todo = tasks(seeds)
    if jobs > 1:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(jobs) as pool:
            results = []
            for done, result in enumerate(pool.imap(cell, todo), 1):
                results.append(result)
                if progress:
                    progress(done, len(todo), todo[done - 1])
    else:
        results = []
        for done, task in enumerate(todo, 1):
            results.append(cell(task))
            if progress:
                progress(done, len(todo), task)
    cells = [
        {
            "section": section,
            "point": point,
            "seed": seed,
            "mechanism": mechanism,
            "factor": factor,
            "threshold": threshold,
            **metrics,
        }
        for (section, point, _i, seed, mechanism, factor, threshold), metrics in zip(
            todo, results
        )
    ]
    return {
        "tool": "tools/fig6_constants.py",
        "seeds": list(seeds),
        "factors": list(FACTORS),
        "thresholds": list(THRESHOLDS),
        "shipped": list(SHIPPED),
        "sections": {
            name: {"experiment": e, "points": list(p), "fixed": fixed, "drained": d}
            for name, (e, p, fixed, d) in SECTIONS.items()
        },
        "ratios": ratios(cells),
        "cells": cells,
    }


def _label(factor: float, threshold: Optional[float]) -> str:
    return "f%g,t%s" % (factor, "off" if threshold is None else "%g" % threshold)


def ratios(cells: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Greedy / QA-NT mean response per section, ``(f, t)`` and point:
    the per-seed ratios (None where either cell failed), their mean and
    sample stdev, and QA-NT's mean messages per query."""
    greedy = {
        (c["section"], c["point"], c["seed"]): c
        for c in cells
        if c["mechanism"] == "greedy"
    }
    out: Dict[str, Dict[str, Dict[str, object]]] = {}
    for c in cells:
        if c["mechanism"] != "qa-nt":
            continue
        base = greedy[(c["section"], c["point"], c["seed"])]
        ratio = None
        if "error" not in c and "error" not in base:
            ratio = base["mean_response_ms"] / c["mean_response_ms"]
        entry = (
            out.setdefault(c["section"], {})
            .setdefault(_label(c["factor"], c["threshold"]), {})
            .setdefault(repr(c["point"]), {"per_seed": [], "messages": []})
        )
        entry["per_seed"].append(ratio)
        entry["messages"].append(c.get("messages_per_query"))
    for by_label in out.values():
        for by_point in by_label.values():
            for entry in by_point.values():
                whole = [r for r in entry["per_seed"] if r is not None]
                entry["mean"] = statistics.mean(whole) if whole else None
                entry["stdev"] = statistics.stdev(whole) if len(whole) > 1 else None
                counts = [m for m in entry.pop("messages") if m is not None]
                entry["messages_per_query"] = (
                    statistics.mean(counts) if counts else None
                )
    return out


def render(artifact: Dict[str, object]) -> str:
    """One table per section: a row per ``(f, t)``, a column per point,
    each the mean ratio over seeds (``x`` where a cell failed)."""
    lines = []
    for section, by_label in artifact["ratios"].items():
        points = artifact["sections"][section]["points"]
        lines.append("%s (greedy / QA-NT mean response, mean of %d seeds)"
                     % (section, len(artifact["seeds"])))
        lines.append("%-10s" % "f, t" + "".join("%11g" % p for p in points))
        for label, by_point in by_label.items():
            row = []
            for point in points:
                entry = by_point[repr(point)]
                if None in entry["per_seed"] or entry["mean"] is None:
                    row.append("%11s" % "x")
                else:
                    row.append("%11.3f" % entry["mean"])
            lines.append("%-10s" % label + "".join(row))
        lines.append("")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=3, help="E8 replicate seeds")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes")
    parser.add_argument("--out", type=pathlib.Path, help="JSON artifact path")
    args = parser.parse_args(argv)
    if args.seeds < 1 or args.jobs < 1:
        parser.error("--seeds and --jobs must be at least 1")
    started = time.perf_counter()

    def progress(done: int, total: int, task: Task) -> None:
        print(
            "[%4d/%d %6.0f s] %s" % (done, total, time.perf_counter() - started, task),
            file=sys.stderr,
            flush=True,
        )

    artifact = run_grid(replicate_seeds(0, args.seeds), args.jobs, progress=progress)
    print(render(artifact))
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(artifact, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
