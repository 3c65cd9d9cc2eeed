"""Analytical cost model for SJPS queries on heterogeneous nodes.

Each simulated RDBMS is described by a :class:`MachineSpec` drawn from the
paper's Table 3 ranges (CPU 1–3.5 GHz, sort/hash buffer 2–10 MB per query,
I/O 5–80 MB/s, hash join on 95 of 100 nodes).  The cost model prices a
query class on a given machine as:

* sequential scan of every base relation (I/O bound, plus a CPU term);
* a left-deep pipeline of joins, smallest relations first:

  - *hash join* when the node supports it — one pass when the build side
    fits the buffer, a grace/partitioned variant with one extra read+write
    of both inputs otherwise;
  - *merge-scan join* everywhere else — external sort of both inputs
    (passes grow logarithmically with size/buffer) followed by a merge;

* an optional final external sort for the ORDER BY.

Intermediate result sizes shrink by the class selectivity after each join.
Absolute times are calibrated by a global ``scale`` so that the average
best-node execution time matches the paper's ≈2,000 ms (Table 3); shapes —
who is faster on what — come from the per-machine parameters.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..catalog import Catalog
from ..catalog.schema import BYTES_PER_ATTRIBUTE
from .model import QueryClass

__all__ = [
    "MachineSpec",
    "CostModel",
    "RelativeSpeedCostModel",
    "cost_matrix",
    "calibrated_cost_model",
]

#: CPU throughput: tuples processed per millisecond per GHz for simple
#: predicate evaluation / hashing.  One knob, calibrated, not measured.
TUPLES_PER_GHZ_MS = 400.0

#: Relative CPU weight of sort comparisons vs plain tuple processing.
SORT_CPU_FACTOR = 0.25

#: Floor on intermediate result size so repeated selectivities cannot make
#: later joins free.
MIN_INTERMEDIATE_MB = 0.05


@dataclass(frozen=True)
class MachineSpec:
    """Hardware description of one federation node (Table 3 ranges)."""

    cpu_ghz: float = 2.3
    buffer_mb: float = 6.0
    io_mbps: float = 42.5
    supports_hash_join: bool = True

    def __post_init__(self) -> None:
        if self.cpu_ghz <= 0:
            raise ValueError("CPU speed must be positive")
        if self.buffer_mb <= 0:
            raise ValueError("buffer size must be positive")
        if self.io_mbps <= 0:
            raise ValueError("I/O speed must be positive")


class CostModel:
    """Prices query classes on machines; see the module docstring."""

    def __init__(self, catalog: Catalog, scale: float = 1.0):
        if scale <= 0:
            raise ValueError("scale must be positive")
        self._catalog = catalog
        self._scale = scale
        self._cache: Dict[Tuple[QueryClass, MachineSpec], float] = {}

    @property
    def scale(self) -> float:
        """Global calibration factor applied to every cost."""
        return self._scale

    def execution_time_ms(
        self, query_class: QueryClass, spec: MachineSpec
    ) -> float:
        """Estimated wall-clock execution time of one class instance."""
        key = (query_class, spec)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        time_ms = self._raw_time_ms(query_class, spec) * self._scale
        self._cache[key] = time_ms
        return time_ms

    def rescaled(self, scale: float) -> "CostModel":
        """A copy of this model with a different calibration factor."""
        return CostModel(self._catalog, scale=scale)

    # -- internals -------------------------------------------------------------

    def _raw_time_ms(self, query_class: QueryClass, spec: MachineSpec) -> float:
        sizes = sorted(
            self._catalog.get(rid).size_mb for rid in query_class.relation_ids
        )
        total = 0.0
        # Scan every base relation once.
        for size_mb in sizes:
            total += self._scan_ms(size_mb, spec)
        # Left-deep join pipeline, smallest relations first.
        current_mb = sizes[0]
        for size_mb in sizes[1:]:
            total += self._join_ms(current_mb, size_mb, spec)
            current_mb = max(
                MIN_INTERMEDIATE_MB,
                max(current_mb, size_mb) * query_class.selectivity,
            )
        if query_class.requires_sort:
            total += self._sort_ms(current_mb, spec)
        return total

    def _scan_ms(self, size_mb: float, spec: MachineSpec) -> float:
        io = size_mb / spec.io_mbps * 1000.0
        cpu = self._tuples(size_mb) / (spec.cpu_ghz * TUPLES_PER_GHZ_MS)
        return io + cpu

    def _join_ms(self, left_mb: float, right_mb: float, spec: MachineSpec) -> float:
        if spec.supports_hash_join:
            return self._hash_join_ms(left_mb, right_mb, spec)
        return self._merge_scan_ms(left_mb, right_mb, spec)

    def _hash_join_ms(self, left_mb: float, right_mb: float, spec: MachineSpec) -> float:
        build_mb = min(left_mb, right_mb)
        cpu = (self._tuples(left_mb) + self._tuples(right_mb)) / (
            spec.cpu_ghz * TUPLES_PER_GHZ_MS
        )
        if build_mb <= spec.buffer_mb:
            return cpu
        # Grace hash join: partition both inputs to disk and re-read them.
        spill_io = 2.0 * (left_mb + right_mb) / spec.io_mbps * 1000.0
        return cpu + spill_io

    def _merge_scan_ms(self, left_mb: float, right_mb: float, spec: MachineSpec) -> float:
        total = self._sort_ms(left_mb, spec) + self._sort_ms(right_mb, spec)
        merge_cpu = (self._tuples(left_mb) + self._tuples(right_mb)) / (
            spec.cpu_ghz * TUPLES_PER_GHZ_MS
        )
        return total + merge_cpu

    def _sort_ms(self, size_mb: float, spec: MachineSpec) -> float:
        tuples = self._tuples(size_mb)
        compare_cpu = (
            tuples
            * math.log2(max(2.0, tuples))
            * SORT_CPU_FACTOR
            / (spec.cpu_ghz * TUPLES_PER_GHZ_MS)
        )
        if size_mb <= spec.buffer_mb:
            return compare_cpu
        # External merge sort: each extra pass rewrites and rereads the run.
        passes = math.ceil(math.log2(size_mb / spec.buffer_mb))
        spill_io = 2.0 * passes * size_mb / spec.io_mbps * 1000.0
        return compare_cpu + spill_io

    @staticmethod
    @lru_cache(maxsize=4096)
    def _tuples(size_mb: float) -> float:
        return size_mb * 1_000_000 / (10 * BYTES_PER_ATTRIBUTE)


class RelativeSpeedCostModel:
    """Costs from fixed per-class base times scaled by machine speed.

    The paper's first simulation set pins execution times directly ("Q1
    and Q2, with an average execution time of 1000 ms and 500 ms") rather
    than deriving them from relations; this model reproduces that: class
    *k* takes ``base_ms[k] / speed(spec)`` where ``speed`` averages the
    machine's CPU and I/O ratios against the Table 3 reference node
    (2.3 GHz, 42.5 MB/s).  Duck-type compatible with :class:`CostModel`
    where only ``execution_time_ms`` is needed.
    """

    #: Reference machine the base costs are quoted against.
    REFERENCE = MachineSpec()

    def __init__(self, base_ms: Mapping[int, float]):
        if not base_ms:
            raise ValueError("need at least one per-class base cost")
        for cost in base_ms.values():
            if cost <= 0:
                raise ValueError("base costs must be positive")
        self._base_ms = dict(base_ms)

    @classmethod
    def speed_factor(cls, spec: MachineSpec) -> float:
        """Relative speed of ``spec`` vs the reference node (1.0 = equal)."""
        return (
            0.5 * spec.cpu_ghz / cls.REFERENCE.cpu_ghz
            + 0.5 * spec.io_mbps / cls.REFERENCE.io_mbps
        )

    def execution_time_ms(self, query_class: QueryClass, spec: MachineSpec) -> float:
        """Execution time of one ``query_class`` instance on ``spec``."""
        base = self._base_ms.get(query_class.index)
        if base is None:
            raise KeyError(
                "no base cost registered for class %d" % query_class.index
            )
        return base / self.speed_factor(spec)


def cost_matrix(
    classes: Sequence[QueryClass],
    specs: Sequence[MachineSpec],
    model: CostModel,
    eligibility: Optional[Sequence[Sequence[bool]]] = None,
) -> List[List[float]]:
    """Cost table ``[node][class] -> ms`` with ``inf`` for ineligible pairs.

    ``eligibility[i][k]`` marks whether node *i* can evaluate class *k*
    (holds all its relations); ``None`` means every node is eligible.
    """
    matrix: List[List[float]] = []
    for i, spec in enumerate(specs):
        row = []
        for k, query_class in enumerate(classes):
            eligible = eligibility is None or eligibility[i][k]
            row.append(
                model.execution_time_ms(query_class, spec)
                if eligible
                else math.inf
            )
        matrix.append(row)
    return matrix


def calibrated_cost_model(
    catalog: Catalog,
    classes: Sequence[QueryClass],
    specs: Sequence[MachineSpec],
    target_best_ms: float = 2000.0,
    eligible_nodes: Optional[Sequence[Sequence[int]]] = None,
) -> CostModel:
    """A cost model scaled so the mean best-node time hits ``target_best_ms``.

    This mirrors the paper's Table 3 calibration: "average best execution
    time of queries: 2000 ms" on the fastest eligible machine.
    ``eligible_nodes[k]`` optionally restricts class *k*'s minimum to the
    nodes actually holding its relations; omitted, every node counts.
    """
    base = CostModel(catalog)
    best_times = []
    for position, query_class in enumerate(classes):
        if eligible_nodes is None:
            eligible = range(len(specs))
        else:
            eligible = eligible_nodes[position]
            if not eligible:
                raise ValueError(
                    "class %d has no eligible node" % query_class.index
                )
        best = min(
            base.execution_time_ms(query_class, specs[i]) for i in eligible
        )
        best_times.append(best)
    # Left to right: builtin ``sum`` compensates from Python 3.12 on.
    mean_best = reduce(operator.add, best_times, 0.0) / len(best_times)
    if mean_best <= 0:
        raise ValueError("degenerate cost model: zero mean best time")
    return base.rescaled(target_best_ms / mean_best)
