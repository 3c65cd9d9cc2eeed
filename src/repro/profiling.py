"""Profiling entry point: cProfile any registered experiment or kernel.

``python -m repro profile <scenario> --scale paper`` runs one scenario
under :mod:`cProfile` and prints the hottest functions, which is how the
paper-scale optimisation targets of this repo were found (the QA-NT
request-for-bid fan-out, the network latency sampling, the per-period
supply solves).  The profile is collected around exactly the code path
``python -m repro run`` executes for a single seed, serially — worker
processes would escape the profiler.

``python -m repro profile --kernel fed.fig5a_paper_short`` profiles one
registered *bench* kernel instead — the same seeded fixture ``python -m
repro bench`` times, so a hotspot hunt on a kernel that regressed is one
command with no scenario bookkeeping around it.  The kernel's ``setup()``
runs outside the profiled region; one warm-up call absorbs first-call
effects (lazy imports, cache fills) so the profile reflects the
steady-state the bench harness measures.

Profiler note: cProfile's tracing typically inflates this simulator's
wall-clock ~3x and overstates Python-level call overhead relative to
C-level work (RNG draws, heap operations); treat the ranking as the
signal, not the absolute numbers, and confirm wins with
``python -m repro bench``.
"""

from __future__ import annotations

import cProfile
import io
import platform
import pstats
from typing import Optional, Sequence

__all__ = [
    "PROFILE_SCHEMA_VERSION",
    "SORT_KEYS",
    "collect_experiment",
    "collect_kernel",
    "profile_experiment",
    "profile_kernel",
    "profile_payload",
    "read_profile_payload",
]

#: pstats sort keys exposed on the CLI.
SORT_KEYS = ("tottime", "cumtime", "ncalls")

#: Version stamp of every ``repro profile --json`` payload (the
#: ``bench_payload`` convention: bump on incompatible row-shape changes).
#: v2 adds the ``shards`` section — per-shard aggregate frame-handling
#: self-time for kernels backed by worker processes, which cProfile's
#: in-process tracing cannot see.  v1 payloads stay readable through
#: :func:`read_profile_payload`.
PROFILE_SCHEMA_VERSION = 2


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


def collect_kernel(name: str) -> cProfile.Profile:
    """Run one registered bench kernel under cProfile; return the profiler.

    The kernel's seeded ``setup()`` and one warm-up call stay outside the
    profiled region, mirroring how the bench harness times it.  Raises
    ``KeyError`` for an unknown kernel name.
    """
    from .bench.kernels import KERNELS

    kernel = KERNELS.get(name)
    if kernel is None:
        raise KeyError(
            "unknown bench kernel %r (see 'python -m repro bench')" % (name,)
        )
    fn = kernel.setup()
    try:
        fn()  # warm-up: lazy imports and cache fills stay out of the profile
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            fn()
        finally:
            profiler.disable()
        # Sharded kernels expose the workers' aggregate frame-handling
        # self-time (a `shard_self_time_s` callable on the run closure);
        # cProfile cannot trace into forked workers, so this rides along
        # on the profiler object for `profile_payload` to fold into
        # schema v2.
        reporter = getattr(fn, "shard_self_time_s", None)
        if callable(reporter):
            profiler.shard_self_time_s = [float(t) for t in reporter()]
    finally:
        kernel.teardown(fn)
    return profiler


def profile_experiment(
    name: str,
    scale: str = "small",
    seed: int = 0,
    sort: str = "tottime",
    limit: int = 25,
    stream: Optional[io.TextIOBase] = None,
) -> str:
    """Run one registered experiment under cProfile; return the report.

    ``sort`` is a :mod:`pstats` sort key (see :data:`SORT_KEYS`);
    ``limit`` bounds the number of rows.  The rendered report is returned
    and, when ``stream`` is given, also written there incrementally.
    """
    _check_render_args(sort, limit)
    return _render(collect_experiment(name, scale, seed), sort, limit, stream)


def profile_kernel(
    name: str,
    sort: str = "tottime",
    limit: int = 25,
    stream: Optional[io.TextIOBase] = None,
) -> str:
    """Run one registered bench kernel under cProfile; return the report.

    See :func:`collect_kernel` for what is and is not inside the profiled
    region.
    """
    _check_render_args(sort, limit)
    return _render(collect_kernel(name), sort, limit, stream)


def profile_payload(
    profiler: cProfile.Profile,
    target: str,
    sort: str = "tottime",
    limit: int = 25,
    shard_self_time_s: Optional[Sequence[float]] = None,
) -> dict:
    """Machine-readable hotspot rows for ``repro profile --json``.

    The ``bench_payload`` convention applied to profiles: a versioned
    envelope whose ``rows`` are the top ``limit`` functions under the
    chosen ``sort`` key, each a flat record scripts can aggregate without
    parsing pstats text — shard-imbalance hunts diff these across shard
    counts.  ``total_time_s`` is the profiler's own (inflated ~3x, see
    the module docs) account of the traced run; row fractions are
    meaningful, absolutes are not.

    Schema v2: the ``shards`` section carries per-shard aggregate
    frame-handling self-time (seconds of real worker wall clock, *not*
    profiler-inflated) for sharded kernels — pass ``shard_self_time_s``
    explicitly or let :func:`collect_kernel` attach it to the profiler.
    Single-process targets get an empty list.
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
    if shard_self_time_s is None:
        shard_self_time_s = getattr(profiler, "shard_self_time_s", [])
    return {
        "schema_version": PROFILE_SCHEMA_VERSION,
        "kind": "profile",
        "target": target,
        "sort": sort,
        "limit": limit,
        "total_time_s": stats.total_tt,
        "python_version": platform.python_version(),
        "rows": rows,
        "shards": [
            {"shard": index, "self_time_s": float(seconds)}
            for index, seconds in enumerate(shard_self_time_s)
        ],
    }


def read_profile_payload(payload: dict) -> dict:
    """Normalise a stored ``repro profile --json`` payload to v2 shape.

    v1 payloads (no ``shards`` section) remain readable: they come back
    with an empty ``shards`` list and their version restated as the
    current schema.  Unknown future versions raise, matching the bench
    baseline loader's posture.
    """
    version = payload.get("schema_version")
    if version not in (1, PROFILE_SCHEMA_VERSION):
        raise ValueError(
            "unsupported profile schema_version %r (supported: 1, %d)"
            % (version, PROFILE_SCHEMA_VERSION)
        )
    if payload.get("kind") != "profile":
        raise ValueError("not a profile payload: kind=%r" % payload.get("kind"))
    normalised = dict(payload)
    normalised.setdefault("shards", [])
    normalised["schema_version"] = PROFILE_SCHEMA_VERSION
    return normalised
