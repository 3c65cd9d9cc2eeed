"""Microbenchmark harness: calibrated timing loops and BENCH artifacts.

The harness times registered kernels (see :mod:`repro.bench.kernels`) the
way ``timeit`` does — an inner loop calibrated so one measurement round
lasts long enough for the clock to resolve, repeated a few times, keeping
the *best* round (background noise only ever slows a run down, so the
minimum is the least-noisy estimate of the true cost).

Results serialise into a versioned ``BENCH_<label>.json`` artifact next to
the experiment artifacts under ``benchmarks/results/``, so every PR can
record a perf datapoint and the repo accumulates a trajectory of ns/op
per kernel over time.  Compare two artifacts with
:func:`compare_payloads`.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import platform
import re
import time
import tracemalloc
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional

from .kernels import KERNELS, Kernel

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "DEFAULT_BENCH_DIR",
    "Measurement",
    "measure",
    "measure_peak",
    "resolve_auto_baseline",
    "run_benchmarks",
    "bench_payload",
    "write_bench_artifact",
    "compare_payloads",
    "confirm_regressions",
    "find_regressions",
    "render_results",
]

#: Version stamp of every BENCH artifact this module writes.  v2 added the
#: optional per-kernel ``peak_kb`` field (``bench --mem``); v1 artifacts
#: are still accepted for comparison — see :data:`_SUPPORTED_SCHEMAS`.
BENCH_SCHEMA_VERSION = 2

#: Schema versions :func:`compare_payloads` can consume.  Timing fields
#: are identical across these, so committed v1 baselines stay comparable.
_SUPPORTED_SCHEMAS = frozenset({1, 2})

#: Default artifact directory (shared with the experiment JSON artifacts).
DEFAULT_BENCH_DIR = "benchmarks/results"

#: One measurement round aims to last this long (seconds); long enough to
#: swamp timer resolution, short enough that a full sweep stays pleasant.
_TARGET_ROUND_S = 0.2

#: Calibration stops doubling once a probe run exceeds this (seconds).
_CALIBRATION_FLOOR_S = 0.02


@dataclass(frozen=True)
class Measurement:
    """Timing result of one kernel."""

    name: str
    description: str
    ns_per_op: float
    repeat: int
    inner_loops: int
    #: Peak Python heap growth of one op in KiB (``bench --mem``), else None.
    peak_kb: Optional[float] = None

    @property
    def ops_per_s(self) -> float:
        """Operations per second implied by :attr:`ns_per_op`."""
        if self.ns_per_op <= 0:
            return math.inf
        return 1e9 / self.ns_per_op

    def to_dict(self) -> dict:
        """JSON-ready form."""
        payload = {
            "description": self.description,
            "ns_per_op": self.ns_per_op,
            "ops_per_s": self.ops_per_s,
            "repeat": self.repeat,
            "inner_loops": self.inner_loops,
        }
        if self.peak_kb is not None:
            payload["peak_kb"] = self.peak_kb
        return payload


def measure(
    fn: Callable[[], object],
    repeat: int = 3,
    target_round_s: float = _TARGET_ROUND_S,
    wall: bool = False,
) -> tuple:
    """Time ``fn``: returns ``(best_ns_per_op, inner_loops)``.

    The inner loop count is calibrated by doubling until one probe run
    takes at least :data:`_CALIBRATION_FLOOR_S`, then scaled so one round
    lasts about ``target_round_s``.  ``repeat`` rounds run and the best
    (minimum) per-op time wins.

    Rounds are timed with process CPU time (``time.process_time``), not
    wall clock: every kernel is single-threaded pure computation, so the
    two agree on an idle machine, but on a shared runner a neighbour's
    load phase inflates wall clock 30-60 % for minutes at a time while
    barely moving the CPU time this process actually consumed — and the
    regression gate compares against baselines captured under unknown
    load.

    ``wall=True`` switches to ``time.perf_counter`` for kernels whose
    work happens partly in *other* processes (the sharded federation):
    parent CPU time would miss everything the shard workers burn, so
    wall clock — noisier, but honest — is the only meaningful metric.
    Kernels opt in via :attr:`repro.bench.kernels.Kernel.wall_time`.
    """
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    perf_counter = time.perf_counter if wall else time.process_time
    inner = 1
    while True:
        started = perf_counter()
        for __ in range(inner):
            fn()
        elapsed = perf_counter() - started
        if elapsed >= _CALIBRATION_FLOOR_S or inner >= 1 << 20:
            break
        inner *= 2
    if elapsed < target_round_s:
        inner = max(1, int(inner * target_round_s / max(elapsed, 1e-9)))
    best = math.inf
    for __ in range(repeat):
        started = perf_counter()
        for __ in range(inner):
            fn()
        elapsed = perf_counter() - started
        per_op = elapsed / inner
        if per_op < best:
            best = per_op
    return best * 1e9, inner


def measure_peak(fn: Callable[[], object]) -> float:
    """Peak Python heap growth of one ``fn()`` call, in KiB.

    Runs *outside* the timed rounds — tracemalloc's allocation hooks slow
    Python allocation down by an order of magnitude, so mixing tracing
    into timing would corrupt ns/op.  One untraced warm-up call lets
    caches and lazy imports settle first, leaving the steady-state
    per-op footprint.

    Multi-process kernels expose a ``child_peak_kb`` attribute on the
    timed callable (a zero-argument callable returning the largest child
    worker's peak RSS in KiB); its reading is added so ``bench --mem``
    reports the whole process tree instead of silently reporting only the
    parent.  Max-over-children rather than a sum: forked workers share
    copy-on-write pages with the parent, so summing RSS would multiply
    the shared interpreter image by the worker count.
    """
    fn()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        __, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    total_kb = peak / 1024.0
    child_peak = getattr(fn, "child_peak_kb", None)
    if callable(child_peak):
        total_kb += float(child_peak())
    return total_kb


def run_benchmarks(
    name_filter: Optional[str] = None,
    repeat: int = 3,
    kernels: Optional[Mapping[str, Kernel]] = None,
    progress: Optional[Callable[[str], None]] = None,
    measure_mem: bool = False,
) -> Dict[str, Measurement]:
    """Run every registered kernel whose name contains ``name_filter``.

    Returns measurements keyed by kernel name, in registration order.
    Each kernel's ``setup`` runs exactly once (outside the timed region).
    ``measure_mem`` adds a traced (untimed) extra call per kernel
    recording its peak heap growth.
    """
    registry = KERNELS if kernels is None else kernels
    selected = [
        kernel
        for name, kernel in registry.items()
        if name_filter is None or name_filter in name
    ]
    if not selected:
        raise ValueError(
            "no benchmark kernel matches filter %r (have: %s)"
            % (name_filter, ", ".join(registry))
        )
    results: Dict[str, Measurement] = {}
    for kernel in selected:
        if progress is not None:
            progress(kernel.name)
        fn = kernel.setup()
        try:
            ns_per_op, inner = measure(
                fn, repeat=repeat, wall=kernel.wall_time
            )
            peak_kb = measure_peak(fn) if measure_mem else None
        finally:
            kernel.teardown(fn)
        results[kernel.name] = Measurement(
            name=kernel.name,
            description=kernel.description,
            ns_per_op=ns_per_op,
            repeat=repeat,
            inner_loops=inner,
            peak_kb=peak_kb,
        )
    return results


def _environment() -> dict:
    """The machine/runtime fingerprint stored with every artifact."""
    return {
        "python_version": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def bench_payload(
    results: Mapping[str, Measurement], label: str = "local"
) -> dict:
    """Versioned, JSON-ready artifact payload for ``results``."""
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "kind": "bench",
        "label": label,
        "created_unix": time.time(),
        "environment": _environment(),
        "kernels": {
            name: measurement.to_dict()
            for name, measurement in results.items()
        },
    }


def _check_label(label: str) -> None:
    if not label or "/" in label or "\\" in label or label in (".", ".."):
        raise ValueError(
            "label must be a plain file-name fragment, got %r" % label
        )


def write_bench_artifact(
    payload: Mapping,
    label: str = "local",
    directory: str = DEFAULT_BENCH_DIR,
) -> pathlib.Path:
    """Write ``payload`` as ``<directory>/BENCH_<label>.json``."""
    _check_label(label)
    target = pathlib.Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    path = target / ("BENCH_%s.json" % label)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def compare_payloads(before: Mapping, after: Mapping) -> Dict[str, float]:
    """Per-kernel speedup factors ``before_ns / after_ns`` (> 1 = faster).

    Only kernels present in both artifacts are compared; schema versions
    must match.
    """
    for payload in (before, after):
        if payload.get("schema_version") not in _SUPPORTED_SCHEMAS:
            raise ValueError(
                "unsupported schema version %r" % payload.get("schema_version")
            )
        if payload.get("kind") != "bench":
            raise ValueError("not a bench payload: kind=%r" % payload.get("kind"))
    speedups = {}
    after_kernels = after["kernels"]
    for name, entry in before["kernels"].items():
        other = after_kernels.get(name)
        if other is None or not other.get("ns_per_op"):
            continue
        speedups[name] = entry["ns_per_op"] / other["ns_per_op"]
    return speedups


def find_regressions(
    baseline: Mapping,
    results: Mapping[str, Measurement],
    threshold_pct: float,
    normalize_common: bool = False,
) -> Dict[str, float]:
    """Kernels slower than ``baseline`` by more than ``threshold_pct``.

    Returns ``{kernel: regression_pct}`` where the regression percentage
    is ``(after_ns / before_ns - 1) * 100`` — e.g. 50.0 means the kernel
    now takes 1.5x its baseline time.  Kernels missing from either side
    are ignored (new kernels have no baseline to regress against).  This
    backs ``repro bench --baseline ... --fail-above PCT``, the CI gate
    that keeps the hot paths from quietly decaying.

    ``normalize_common`` divides every kernel's slowdown by the suite's
    *median* slowdown (clamped to >= 1, so a faster-than-baseline machine
    is never penalised) before applying the threshold.  Shared runners
    drift through host phases — frequency scaling, hypervisor steal —
    where every kernel reads 30-60 % slow against a baseline captured
    under different conditions; a code regression hits *one* kernel's
    relative position, a machine phase hits all of them.  Normalisation
    needs at least three compared kernels to estimate the common mode and
    silently falls back to absolute comparison below that.
    """
    if threshold_pct < 0:
        raise ValueError("threshold must be non-negative")
    speedups = compare_payloads(
        baseline, bench_payload(results, label="current")
    )
    ratios = {name: 1.0 / speedup for name, speedup in speedups.items()}
    common = 1.0
    if normalize_common and len(ratios) >= 3:
        ordered = sorted(ratios.values())
        mid = len(ordered) // 2
        median = (
            ordered[mid]
            if len(ordered) % 2
            else (ordered[mid - 1] + ordered[mid]) / 2.0
        )
        common = max(1.0, median)
    regressions = {}
    for name, ratio in ratios.items():
        regression_pct = (ratio / common - 1.0) * 100.0
        if regression_pct > threshold_pct:
            regressions[name] = regression_pct
    return regressions


def confirm_regressions(
    baseline: Mapping,
    results: Dict[str, Measurement],
    threshold_pct: float,
    kernels: Optional[Mapping[str, Kernel]] = None,
    repeat: int = 1,
    rounds: int = 2,
    normalize_common: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, float]:
    """Re-measure regressed kernels and keep only persistent regressions.

    Two noise defences on top of :func:`find_regressions`, for gating on
    shared machines whose effective speed drifts 30-60 % in phases:
    common-mode normalisation (``normalize_common``, see
    :func:`find_regressions`) absorbs suite-wide slowdowns, and each
    kernel still flagged is re-run up to ``rounds`` more times, its best
    time merged back into ``results`` (in place, so the reported table
    and artifact reflect the confirmed numbers).  Only kernels over the
    threshold through every round are returned — a *real* regression
    reproduces on every re-measure.
    """
    registry = KERNELS if kernels is None else kernels
    regressions = find_regressions(
        baseline, results, threshold_pct, normalize_common=normalize_common
    )
    for __ in range(rounds):
        retry = {
            name: registry[name]
            for name in regressions
            if name in registry
        }
        if not retry:
            break
        if progress is not None:
            progress(
                "re-measuring %d regressed kernel(s) to rule out "
                "machine noise: %s" % (len(retry), ", ".join(retry))
            )
        remeasured = run_benchmarks(kernels=retry, repeat=repeat)
        for name, measurement in remeasured.items():
            if measurement.ns_per_op < results[name].ns_per_op:
                results[name] = measurement
        regressions = {
            name: pct
            for name, pct in find_regressions(
                baseline,
                results,
                threshold_pct,
                normalize_common=normalize_common,
            ).items()
            if name in regressions
        }
    return regressions


def render_results(
    results: Mapping[str, Measurement],
    baseline: Optional[Mapping] = None,
) -> str:
    """Aligned text table of measurements (with optional baseline column).

    A ``peak KiB`` column appears when any measurement carries a memory
    reading (``bench --mem``).
    """
    headers = ["kernel", "ns/op", "ops/s"]
    with_mem = any(m.peak_kb is not None for m in results.values())
    if with_mem:
        headers.append("peak KiB")
    speedups: Mapping[str, float] = {}
    if baseline is not None:
        headers.append("vs baseline")
        speedups = compare_payloads(
            baseline, bench_payload(results, label="current")
        )
    rows = []
    for name, measurement in results.items():
        row = [
            name,
            _format_ns(measurement.ns_per_op),
            _format_ops(measurement.ops_per_s),
        ]
        if with_mem:
            peak = measurement.peak_kb
            row.append("{:,.1f}".format(peak) if peak is not None else "-")
        if baseline is not None:
            factor = speedups.get(name)
            row.append("%.2fx" % factor if factor is not None else "-")
        rows.append(row)
    widths = [
        max(len(str(headers[col])), *(len(str(r[col])) for r in rows))
        for col in range(len(headers))
    ]
    lines = [
        "  ".join(str(h).ljust(w) for h, w in zip(headers, widths)).rstrip()
    ]
    for row in rows:
        lines.append(
            "  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip()
        )
    return "\n".join(lines)


def _format_ns(value: float) -> str:
    if value >= 1e6:
        return "{:,.0f}".format(value)
    if value >= 1000:
        return "{:,.1f}".format(value)
    return "%.1f" % value


def _format_ops(value: float) -> str:
    if value >= 1000:
        return "{:,.0f}".format(value)
    return "%.1f" % value


def load_baseline(path: str) -> dict:
    """Read a previously written BENCH artifact for comparison."""
    return json.loads(pathlib.Path(path).read_text())


#: Committed per-PR baselines live at the repo root as ``BENCH_pr<N>.json``.
_PR_BASELINE_RE = re.compile(r"^BENCH_pr(\d+)\.json$")


def resolve_auto_baseline(directory: str = ".") -> pathlib.Path:
    """The newest committed ``BENCH_pr<N>.json`` under ``directory``.

    "Newest" means the highest PR number ``N``, not the file mtime — a
    fresh checkout gives every file the same timestamp.  This backs
    ``repro bench --baseline auto``, which spares callers from knowing
    which PR last published a baseline (and from the ``--out`` default
    ``benchmarks/results`` vs. root-level committed baselines mix-up).
    Raises ``ValueError`` when the directory holds no such file.
    """
    best: Optional[pathlib.Path] = None
    best_number = -1
    for path in pathlib.Path(directory).iterdir():
        match = _PR_BASELINE_RE.match(path.name)
        if match and int(match.group(1)) > best_number:
            best_number = int(match.group(1))
            best = path
    if best is None:
        raise ValueError(
            "no committed BENCH_pr<N>.json baseline found in %r" % directory
        )
    return best


__all__.append("load_baseline")
