"""Shared experiment worlds and runners (paper Section 5.1 setups).

Two worlds cover every simulated experiment:

* :func:`two_query_world` — the dynamic-workload setup: queries Q1
  (1,000 ms average) evaluable by *all* nodes and Q2 (500 ms) evaluable by
  *half* of them, on a heterogeneous federation (Table 3 machine ranges);
* :func:`zipf_world` — the heterogeneous-workload setup: the full Table 3
  synthetic catalog, 100 query classes of 0–49 joins, calibrated to a
  2,000 ms average best-node execution time.

Both return a :class:`World` bundling everything the figure drivers need,
and :func:`run_mechanisms` executes a list of allocation mechanisms on the
same trace with fresh federations, returning per-mechanism metrics.

Experiment sizes are parameters everywhere: the defaults match the paper
(100 nodes, 10,000 queries) and the test suite passes smaller "fast"
values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..allocation import (
    Allocator,
    BnqrdAllocator,
    GreedyAllocator,
    QantAllocator,
    RandomAllocator,
    RoundRobinAllocator,
    TwoRandomProbesAllocator,
)
from ..catalog import (
    Catalog,
    CatalogParameters,
    Placement,
    generate_catalog_and_placement,
)
from ..query import (
    MachineSpec,
    QueryClass,
    QueryClassParameters,
    RelativeSpeedCostModel,
    calibrated_cost_model,
    generate_query_classes,
)
from ..sim import (
    FederationConfig,
    MetricsCollector,
    build_federation,
    generate_machine_specs,
    system_capacity_qpms,
)
from ..workload import Trace, WorkloadEvent, two_class_sinusoid_trace, zipf_trace

__all__ = [
    "World",
    "MechanismRun",
    "two_query_world",
    "zipf_world",
    "run_mechanism",
    "run_mechanisms",
    "default_mechanism_factories",
    "Q1_BASE_MS",
    "Q2_BASE_MS",
]

#: Average execution times of the two-query workload (Section 5.1).
Q1_BASE_MS = 1000.0
Q2_BASE_MS = 500.0


@dataclass
class World:
    """A fully specified simulated federation, minus the allocator."""

    specs: List[MachineSpec]
    placement: Placement
    classes: List[QueryClass]
    cost_model: object  # CostModel or RelativeSpeedCostModel (duck typed)
    catalog: Optional[Catalog] = None

    @property
    def num_nodes(self) -> int:
        """Number of federation nodes."""
        return len(self.specs)

    def cost_matrix(self) -> List[List[float]]:
        """Per-node per-class execution times, ``inf`` for ineligible."""
        holders = [qc.candidate_nodes(self.placement) for qc in self.classes]
        return [
            [
                self.cost_model.execution_time_ms(qc, self.specs[node_id])
                if node_id in held
                else math.inf
                for qc, held in zip(self.classes, holders)
            ]
            for node_id in self.placement.node_ids
        ]

    def capacity_qpms(self, mix: Sequence[float]) -> float:
        """Max sustainable throughput (queries/ms) for a class mix."""
        return system_capacity_qpms(self.cost_matrix(), mix)


@dataclass
class MechanismRun:
    """Result of one mechanism over one trace."""

    mechanism: str
    metrics: MetricsCollector
    messages: int

    @property
    def mean_response_ms(self) -> float:
        """Mean query response time of the run."""
        return self.metrics.mean_response_ms()

    def metrics_dict(self) -> Dict[str, float]:
        """The run's headline numbers as a flat, picklable mapping.

        This is the sweep-cell currency: parallel runners ship these
        dicts across process boundaries instead of the full collector.
        """
        return {
            "mean_response_ms": self.metrics.mean_response_ms(),
            "messages": self.messages,
            "completed": self.metrics.completed,
            "dropped": self.metrics.dropped,
        }

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready summary of the run."""
        summary: Dict[str, object] = {"mechanism": self.mechanism}
        summary.update(self.metrics_dict())
        return summary


def two_query_world(
    num_nodes: int = 100,
    seed: int = 0,
    q1_base_ms: float = Q1_BASE_MS,
    q2_base_ms: float = Q2_BASE_MS,
) -> World:
    """The two-query dynamic-workload setup (Figs. 3–5).

    Every node holds Q1's relation; every second node also holds Q2's
    ("Q2 could be evaluated by only half of the available nodes").
    Machines follow Table 3's heterogeneous ranges; costs scale with the
    per-node speed factor around the stated 1,000/500 ms averages.
    """
    holdings = {}
    for node in range(num_nodes):
        rels = {0}
        if node % 2 == 0:
            rels.add(1)
        holdings[node] = rels
    placement = Placement(holdings)
    classes = [
        QueryClass(index=0, relation_ids=(0,), selectivity=0.5, requires_sort=False),
        QueryClass(index=1, relation_ids=(1,), selectivity=0.5, requires_sort=False),
    ]
    specs = generate_machine_specs(
        num_nodes,
        seed=seed,
        nodes_without_hash_join=max(1, num_nodes // 20),
    )
    model = RelativeSpeedCostModel({0: q1_base_ms, 1: q2_base_ms})
    return World(
        specs=specs, placement=placement, classes=classes, cost_model=model
    )


def zipf_world(
    num_nodes: int = 100,
    num_relations: int = 1000,
    num_classes: int = 100,
    max_joins: int = 49,
    target_best_ms: float = 2000.0,
    seed: int = 0,
) -> World:
    """The heterogeneous Zipf-workload setup (Fig. 6, Table 3 defaults)."""
    cat_params = CatalogParameters(
        num_relations=num_relations,
        num_nodes=num_nodes,
        num_groups=max(1, num_nodes // 10),
    )
    catalog, placement = generate_catalog_and_placement(cat_params, seed=seed)
    class_params = QueryClassParameters(
        num_classes=num_classes, max_joins=max_joins
    )
    classes = generate_query_classes(
        catalog, placement, class_params, seed=seed + 1
    )
    specs = generate_machine_specs(
        num_nodes,
        seed=seed + 2,
        nodes_without_hash_join=max(1, num_nodes // 20),
    )
    eligible = [
        sorted(qc.candidate_nodes(placement)) for qc in classes
    ]
    model = calibrated_cost_model(
        catalog,
        classes,
        specs,
        target_best_ms=target_best_ms,
        eligible_nodes=eligible,
    )
    return World(
        specs=specs,
        placement=placement,
        classes=classes,
        cost_model=model,
        catalog=catalog,
    )


def sinusoid_trace_for_load(
    world: World,
    load_fraction: float,
    horizon_ms: float,
    frequency_hz: float = 0.05,
    seed: int = 0,
) -> Trace:
    """A two-query sinusoid trace whose *mean* load is ``load_fraction``
    of the world's capacity for the workload's 2:1 Q1:Q2 mix.

    The Q1 sinusoid's mean rate is half its peak and Q2's peak is half
    Q1's, so the total mean rate is ``0.75 * q1_peak``; the peak rate is
    solved from that.
    """
    capacity = world.capacity_qpms([2.0, 1.0])
    q1_peak = load_fraction * capacity * 4.0 / 3.0
    return two_class_sinusoid_trace(
        horizon_ms=horizon_ms,
        q1_peak_rate_per_ms=q1_peak,
        frequency_hz=frequency_hz,
        origin_nodes=world.placement.node_ids,
        seed=seed,
    )


def zipf_trace_for_world(
    world: World,
    mean_interarrival_ms: float,
    horizon_ms: float,
    max_queries: Optional[int] = 10_000,
    seed: int = 0,
) -> Trace:
    """The Fig. 6 workload over ``world``'s classes."""
    return zipf_trace(
        num_classes=len(world.classes),
        mean_interarrival_ms=mean_interarrival_ms,
        horizon_ms=horizon_ms,
        origin_nodes=world.placement.node_ids,
        max_queries=max_queries,
        seed=seed,
    )


def default_mechanism_factories() -> Dict[str, Callable[[], Allocator]]:
    """Factories for the six mechanisms of Fig. 4, in paper order."""
    return {
        "qa-nt": QantAllocator,
        "greedy": GreedyAllocator,
        "random": RandomAllocator,
        "round-robin": RoundRobinAllocator,
        "bnqrd": BnqrdAllocator,
        "two-probes": TwoRandomProbesAllocator,
    }


def run_mechanism(
    world: World,
    trace: Sequence[WorkloadEvent],
    name: str,
    factory: Callable[[], Allocator],
    config: Optional[FederationConfig] = None,
) -> MechanismRun:
    """Run one mechanism on a fresh federation over ``trace``."""
    federation = build_federation(
        world.specs,
        world.placement,
        world.classes,
        world.cost_model,
        factory(),
        config or FederationConfig(),
    )
    metrics = federation.run(trace)
    return MechanismRun(
        mechanism=name,
        metrics=metrics,
        messages=federation.network.messages_sent,
    )


def run_mechanisms(
    world: World,
    trace: Sequence[WorkloadEvent],
    mechanisms: Optional[Dict[str, Callable[[], Allocator]]] = None,
    config: Optional[FederationConfig] = None,
) -> Dict[str, MechanismRun]:
    """Run each mechanism on a fresh federation over the same trace."""
    mechanisms = mechanisms or default_mechanism_factories()
    config = config or FederationConfig()
    return {
        name: run_mechanism(world, trace, name, factory, config)
        for name, factory in mechanisms.items()
    }
