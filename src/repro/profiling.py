"""Profiling entry point: cProfile any registered experiment.

``python -m repro profile <scenario> --scale paper`` runs one scenario
under :mod:`cProfile` and prints the hottest functions, which is how the
paper-scale optimisation targets of this repo were found (the QA-NT
request-for-bid fan-out, the network latency sampling, the per-period
supply solves).  The profile is collected around exactly the code path
``python -m repro run`` executes for a single seed, serially — worker
processes would escape the profiler.

Profiler note: cProfile's tracing typically inflates this simulator's
wall-clock ~3x and overstates Python-level call overhead relative to
C-level work (RNG draws, heap operations); treat the ranking as the
signal, not the absolute numbers, and confirm wins with the repo
benchmark (``perf/README.md``).
"""

from __future__ import annotations

import cProfile
import io
import platform
import pstats
from typing import Optional

__all__ = [
    "PROFILE_SCHEMA_VERSION",
    "SORT_KEYS",
    "collect_experiment",
    "profile_payload",
]

#: pstats sort keys exposed on the CLI.
SORT_KEYS = ("tottime", "cumtime", "ncalls")

#: Version stamp of every ``repro profile --json`` payload (bump on
#: incompatible shape changes).  v3 drops v2's ``shards`` section: only
#: bench-kernel closures could fill it, and experiments run in-process.
PROFILE_SCHEMA_VERSION = 3


def _check_render_args(sort: str, limit: int) -> None:
    if sort not in SORT_KEYS:
        raise ValueError(
            "unknown sort key %r (expected one of %s)"
            % (sort, ", ".join(SORT_KEYS))
        )
    if limit < 1:
        raise ValueError("limit must be >= 1")


def _render(
    profiler: cProfile.Profile,
    sort: str,
    limit: int,
    stream: Optional[io.TextIOBase],
) -> str:
    """Render a collected profile as a pstats report string."""
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats(sort).print_stats(limit)
    report = buffer.getvalue()
    if stream is not None:
        stream.write(report)
    return report


def collect_experiment(
    name: str, scale: str = "small", seed: int = 0
) -> cProfile.Profile:
    """Run one registered experiment under cProfile; return the profiler."""
    from .experiments.runner import run_single, run_sweep
    from .experiments.spec import REGISTRY

    spec = REGISTRY.get(name)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        if spec.sweepable:
            run_sweep(spec, scale=scale, seeds=(seed,))
        else:
            run_single(spec, scale, seed)
    finally:
        profiler.disable()
    return profiler


def profile_payload(
    profiler: cProfile.Profile,
    target: str,
    sort: str = "tottime",
    limit: int = 25,
) -> dict:
    """Machine-readable hotspot rows for ``repro profile --json``.

    A versioned envelope whose ``rows`` are the top ``limit`` functions
    under the chosen ``sort`` key, each a flat record scripts can
    aggregate without parsing pstats text.  ``total_time_s`` is the
    profiler's own (inflated ~3x, see the module docs) account of the
    traced run; row fractions are meaningful, absolutes are not.
    """
    _check_render_args(sort, limit)
    stats = pstats.Stats(profiler)
    stats.sort_stats(sort)
    rows = []
    for func in stats.fcn_list[:limit]:
        primitive_calls, ncalls, tottime, cumtime, __ = stats.stats[func]
        filename, line, function = func
        rows.append(
            {
                "file": filename,
                "line": line,
                "function": function,
                "ncalls": ncalls,
                "primitive_calls": primitive_calls,
                "tottime_s": tottime,
                "cumtime_s": cumtime,
            }
        )
    return {
        "schema_version": PROFILE_SCHEMA_VERSION,
        "kind": "profile",
        "target": target,
        "sort": sort,
        "limit": limit,
        "total_time_s": stats.total_tt,
        "python_version": platform.python_version(),
        "rows": rows,
    }
