"""Sweep execution: expand a spec into cells, run them, aggregate, persist.

The runner turns a sweepable :class:`~repro.experiments.spec.ScenarioSpec`
into a grid of independent :class:`~repro.experiments.spec.SweepCell` s
(mechanism x sweep-point x seed) and executes them either serially or on
a :class:`concurrent.futures.ProcessPoolExecutor`.  Replicate seeds are
derived deterministically in the parent process (sha256-keyed
:class:`random.Random` spawning), and cells are aggregated in grid order,
so a parallel run is byte-identical to a serial one.

Results aggregate into a :class:`SweepResult` carrying every per-cell
metric plus per-point mean/stdev across seeds, and serialise to a
versioned JSON artifact written under ``benchmarks/results/``.
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .spec import ScenarioSpec, SweepCell

__all__ = [
    "SCHEMA_VERSION",
    "CellResult",
    "MetricStats",
    "SweepResult",
    "derive_cell_seed",
    "replicate_seeds",
    "expand_cells",
    "run_sweep",
    "run_single",
    "single_run_payload",
    "write_json_artifact",
]

#: Version stamp of every JSON artifact this module writes.
SCHEMA_VERSION = 1

#: Default artifact directory.
DEFAULT_RESULTS_DIR = "benchmarks/results"


# --------------------------------------------------------------------- seeds


def derive_cell_seed(seed: int, cell_key: Sequence[object]) -> int:
    """A deterministic, process-stable seed derived from ``(seed, key)``.

    Python's builtin ``hash`` is salted per process, so the derivation
    keys a :class:`random.Random` off a sha256 digest instead: the same
    (seed, key) pair yields the same child seed in every process and on
    every run, which is what makes parallel sweeps reproducible.
    """
    payload = repr((int(seed), tuple(cell_key))).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return random.Random(int.from_bytes(digest[:8], "big")).randrange(1 << 31)


def replicate_seeds(base_seed: int, count: int) -> Tuple[int, ...]:
    """``count`` deterministic replicate seeds spawned from ``base_seed``.

    The first replicate *is* ``base_seed``, so ``--seed S`` alone hands
    every cell ``seed=S`` unmodified (the cell docstrings state what each
    derives from it); the rest are hash-derived so replicates are
    independent but stable.
    """
    if count < 1:
        raise ValueError("need at least one replicate")
    return tuple(
        [int(base_seed)]
        + [derive_cell_seed(base_seed, ("replicate", i)) for i in range(1, count)]
    )


# --------------------------------------------------------------------- cells


def expand_cells(
    spec: ScenarioSpec, scale: str, seeds: Sequence[int]
) -> List[SweepCell]:
    """The full (seed x point x mechanism) grid of ``spec`` at ``scale``."""
    if not spec.sweepable:
        raise ValueError("scenario %r is not sweepable" % spec.name)
    preset = spec.preset(scale)
    cells = []
    for seed_index, seed in enumerate(seeds):
        for point_index, point in enumerate(preset.points):
            for mechanism in spec.mechanisms:
                cells.append(
                    SweepCell(
                        experiment=spec.name,
                        mechanism=mechanism,
                        point=point,
                        point_index=point_index,
                        seed=int(seed),
                        seed_index=seed_index,
                    )
                )
    return cells


@dataclass(frozen=True)
class CellResult:
    """One executed cell and its flat metric mapping."""

    cell: SweepCell
    metrics: Mapping[str, float]


def _execute_cell(payload) -> CellResult:
    """Run one cell (top-level so process pools can pickle it).

    ``extra`` carries per-cell keyword arguments derived in the parent
    process (currently the fault-aware scenarios' ``fault_seed``), so
    worker processes never re-derive anything.
    """
    cell_fn, cell, fixed, extra = payload
    metrics = dict(
        cell_fn(
            cell.mechanism,
            cell.point,
            cell.point_index,
            cell.seed,
            **fixed,
            **extra,
        )
    )
    return CellResult(cell=cell, metrics=metrics)


# --------------------------------------------------------------------- stats


@dataclass(frozen=True)
class MetricStats:
    """One metric's values across seeds plus mean/stdev."""

    values: Tuple[float, ...]

    @property
    def mean(self) -> float:
        """Arithmetic mean across seeds."""
        return sum(self.values) / len(self.values)

    @property
    def stdev(self) -> float:
        """Sample standard deviation (0 for a single seed)."""
        n = len(self.values)
        if n < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(sum((v - mu) ** 2 for v in self.values) / (n - 1))


@dataclass(frozen=True)
class SweepResult:
    """Aggregated outcome of one sweep: the full cell grid plus stats."""

    experiment: str
    title: str
    axis: str
    scale: str
    points: Tuple[object, ...]
    mechanisms: Tuple[str, ...]
    seeds: Tuple[int, ...]
    primary_metric: str
    cells: Tuple[CellResult, ...]
    ratio_of: Optional[Tuple[str, str]] = None
    #: Sweep-level fault seed (fault-aware scenarios only).  ``None`` for
    #: fault-free sweeps — and then omitted from the JSON payload, so
    #: pre-existing artifacts stay byte-identical.
    fault_seed: Optional[int] = None

    # -- lookups -----------------------------------------------------------

    def metric_names(self) -> List[str]:
        """Every metric any cell reported, sorted."""
        names = set()
        for result in self.cells:
            names.update(result.metrics)
        return sorted(names)

    def stats(
        self, mechanism: str, point_index: int, metric: Optional[str] = None
    ) -> MetricStats:
        """Across-seed stats of one metric at one grid position."""
        metric = metric or self.primary_metric
        values = [
            float(result.metrics[metric])
            for result in self.cells
            if result.cell.mechanism == mechanism
            and result.cell.point_index == point_index
        ]
        if not values:
            raise KeyError(
                "no cells for (%s, point %d)" % (mechanism, point_index)
            )
        return MetricStats(values=tuple(values))

    def series(
        self, mechanism: str, metric: Optional[str] = None
    ) -> List[MetricStats]:
        """Per-point stats for one mechanism, in axis order."""
        return [
            self.stats(mechanism, index, metric)
            for index in range(len(self.points))
        ]

    def ratio_stats(
        self,
        numerator: str,
        denominator: str,
        point_index: int,
        metric: Optional[str] = None,
    ) -> MetricStats:
        """Across-seed stats of the paired per-seed ratio at one point.

        The pairing (same seed feeds both mechanisms, hence the same
        trace) cancels workload randomness — the comparison the paper's
        normalised figures make.
        """
        num = self.stats(numerator, point_index, metric)
        den = self.stats(denominator, point_index, metric)
        return MetricStats(
            values=tuple(n / d for n, d in zip(num.values, den.values))
        )

    def ratio_series(
        self, metric: Optional[str] = None
    ) -> Optional[List[MetricStats]]:
        """Per-point paired ratio stats for ``ratio_of`` (None if unset)."""
        if self.ratio_of is None:
            return None
        numerator, denominator = self.ratio_of
        return [
            self.ratio_stats(numerator, denominator, index, metric)
            for index in range(len(self.points))
        ]

    # -- presentation ------------------------------------------------------

    def render(self) -> str:
        """The sweep as an aligned text table (primary metric only)."""
        from .reporting import format_table

        multi_seed = len(self.seeds) > 1
        headers = [self.axis]
        for mechanism in self.mechanisms:
            headers.append("%s %s" % (mechanism, self.primary_metric))
        if self.ratio_of is not None:
            headers.append("%s / %s" % self.ratio_of)
        rows = []
        ratios = self.ratio_series()
        for index, point in enumerate(self.points):
            row = [point]
            for mechanism in self.mechanisms:
                row.append(_stat_cell(self.stats(mechanism, index), multi_seed))
            if ratios is not None:
                row.append(_stat_cell(ratios[index], multi_seed))
            rows.append(row)
        table = format_table(headers, rows)
        footer = "seeds: %s  scale: %s" % (list(self.seeds), self.scale)
        return "%s\n%s" % (table, footer)

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict:
        """Versioned, JSON-ready form: every cell plus per-point stats."""
        summary: Dict[str, dict] = {}
        for mechanism in self.mechanisms:
            per_metric: Dict[str, list] = {}
            for metric in self.metric_names():
                entries = []
                for index, point in enumerate(self.points):
                    stats = self.stats(mechanism, index, metric)
                    entries.append(
                        {
                            "point": point,
                            "mean": stats.mean,
                            "stdev": stats.stdev,
                            "values": list(stats.values),
                        }
                    )
                per_metric[metric] = entries
            summary[mechanism] = per_metric
        payload = {
            "schema_version": SCHEMA_VERSION,
            "kind": "sweep",
            "experiment": self.experiment,
            "title": self.title,
            "axis": self.axis,
            "scale": self.scale,
            "points": list(self.points),
            "mechanisms": list(self.mechanisms),
            "seeds": list(self.seeds),
            "primary_metric": self.primary_metric,
            "ratio_of": list(self.ratio_of) if self.ratio_of else None,
            "cells": [
                {
                    "mechanism": result.cell.mechanism,
                    "point": result.cell.point,
                    "point_index": result.cell.point_index,
                    "seed": result.cell.seed,
                    "seed_index": result.cell.seed_index,
                    "metrics": dict(result.metrics),
                }
                for result in self.cells
            ],
            "summary": summary,
        }
        if self.fault_seed is not None:
            payload["fault_seed"] = self.fault_seed
        if self.ratio_of is not None:
            payload["ratio_summary"] = [
                {
                    "point": point,
                    "mean": stats.mean,
                    "stdev": stats.stdev,
                    "values": list(stats.values),
                }
                for point, stats in zip(self.points, self.ratio_series())
            ]
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SweepResult":
        """Rebuild a result from :meth:`to_dict` output (summary ignored)."""
        if payload.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(
                "unsupported schema version %r" % payload.get("schema_version")
            )
        if payload.get("kind") != "sweep":
            raise ValueError("not a sweep payload: kind=%r" % payload.get("kind"))
        cells = tuple(
            CellResult(
                cell=SweepCell(
                    experiment=payload["experiment"],
                    mechanism=entry["mechanism"],
                    point=entry["point"],
                    point_index=entry["point_index"],
                    seed=entry["seed"],
                    seed_index=entry["seed_index"],
                ),
                metrics=dict(entry["metrics"]),
            )
            for entry in payload["cells"]
        )
        ratio_of = payload.get("ratio_of")
        return cls(
            experiment=payload["experiment"],
            title=payload.get("title", payload["experiment"]),
            axis=payload["axis"],
            scale=payload["scale"],
            points=tuple(payload["points"]),
            mechanisms=tuple(payload["mechanisms"]),
            seeds=tuple(payload["seeds"]),
            primary_metric=payload["primary_metric"],
            cells=cells,
            ratio_of=tuple(ratio_of) if ratio_of else None,
            fault_seed=payload.get("fault_seed"),
        )


def _stat_cell(stats: MetricStats, multi_seed: bool) -> str:
    if multi_seed:
        return "%.3f +/-%.3f" % (stats.mean, stats.stdev)
    return "%.3f" % stats.mean


# ------------------------------------------------------------------ running


def run_sweep(
    spec: ScenarioSpec,
    scale: str = "small",
    seeds: Sequence[int] = (0,),
    jobs: int = 1,
    progress: Optional[Callable[[int, int, CellResult], None]] = None,
    fault_seed: Optional[int] = None,
    pool: Optional[ProcessPoolExecutor] = None,
) -> SweepResult:
    """Expand ``spec`` at ``scale`` and execute every cell.

    ``jobs > 1`` fans the cells out on a process pool; results are
    collected in grid order either way, so the aggregate is byte-identical
    to a serial run.  ``progress(done, total, cell_result)`` is invoked
    after each cell completes.

    ``pool`` lets a caller running *several* sweeps (``repro run all
    --jobs N``) share one executor across them instead of paying worker
    spawn + interpreter warm-up per spec; the caller owns its lifetime.
    Without it, ``jobs > 1`` creates (and tears down) a private pool.
    Cell seeds are derived in the parent either way, so reusing warm
    workers cannot change a single result byte.

    ``fault_seed`` seeds the fault streams of fault-aware scenarios
    (default 0): each cell receives a sha-derived per-cell child of it —
    derived here, in the parent process — so fault schedules are
    reproducible independently of the workload ``seeds`` and identical
    across serial and parallel executions.  Fault-free scenarios reject a
    fault seed to catch mistargeted invocations.
    """
    if jobs < 1:
        raise ValueError("jobs must be positive")
    seeds = tuple(int(s) for s in seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    if fault_seed is not None and not spec.fault_aware:
        raise ValueError(
            "scenario %r is not fault-aware; --fault-seed does not apply"
            % spec.name
        )
    cells = expand_cells(spec, scale, seeds)
    fixed = dict(spec.preset(scale).fixed)
    fault_base = None
    if spec.fault_aware:
        fault_base = 0 if fault_seed is None else int(fault_seed)
    payloads = [
        (
            spec.cell,
            cell,
            fixed,
            (
                {"fault_seed": derive_cell_seed(fault_base, ("fault",) + cell.cell_key)}
                if fault_base is not None
                else {}
            ),
        )
        for cell in cells
    ]
    results: List[CellResult] = []
    executor = pool
    owns_pool = False
    if executor is None and jobs > 1 and len(payloads) > 1:
        executor = ProcessPoolExecutor(max_workers=min(jobs, len(payloads)))
        owns_pool = True
    if executor is not None and len(payloads) > 1:
        try:
            for result in executor.map(_execute_cell, payloads):
                results.append(result)
                if progress is not None:
                    progress(len(results), len(payloads), result)
        finally:
            if owns_pool:
                executor.shutdown()
    else:
        for payload in payloads:
            result = _execute_cell(payload)
            results.append(result)
            if progress is not None:
                progress(len(results), len(payloads), result)
    return SweepResult(
        experiment=spec.name,
        title=spec.title,
        axis=spec.axis,
        scale=scale,
        points=tuple(spec.preset(scale).points),
        mechanisms=spec.mechanisms,
        seeds=seeds,
        primary_metric=spec.primary_metric,
        cells=tuple(results),
        ratio_of=spec.ratio_of,
        fault_seed=fault_base,
    )


def run_single(spec: ScenarioSpec, scale: str = "small", seed: int = 0):
    """Run a non-sweep scenario once: ``runner(seed=seed, **fixed)``."""
    if spec.runner is None:
        raise ValueError(
            "scenario %r has no plain runner; use run_sweep" % spec.name
        )
    return spec.runner(seed=seed, **dict(spec.preset(scale).fixed))


def single_run_payload(
    spec: ScenarioSpec,
    scale: str,
    seeds: Sequence[int],
    results: Sequence[object],
) -> dict:
    """Versioned JSON payload for a non-sweep scenario's per-seed results."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "single",
        "experiment": spec.name,
        "title": spec.title,
        "scale": scale,
        "seeds": [int(s) for s in seeds],
        "results": [result.to_dict() for result in results],
    }


# ---------------------------------------------------------------- artifacts


def write_json_artifact(
    name: str,
    payload: Mapping,
    directory: str = DEFAULT_RESULTS_DIR,
) -> pathlib.Path:
    """Write ``payload`` as ``<directory>/<name>.json`` and return the path.

    Keys are sorted and NaN/inf are nulled so the artifact is strict JSON
    and byte-identical across serial and parallel runs of the same sweep.
    """
    target = pathlib.Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    path = target / ("%s.json" % name)
    text = json.dumps(_json_safe(payload), indent=2, sort_keys=True)
    path.write_text(text + "\n")
    return path


def _json_safe(value):
    """Recursively replace non-finite floats with None (strict JSON)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value
