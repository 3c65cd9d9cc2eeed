"""Extension experiment C1 — chaos: drops x churn under a partition.

The paper claims the non-tatonnement process re-converges after "multiple
node failures" without coordination; the market-based allocation
literature adds that the interesting behaviour of price-adjustment
processes appears exactly when messages are lost and agents act on stale
prices.  This experiment applies both at once: a drop-rate x churn-rate
grid, with a half-federation partition in the middle of the run (even vs
odd nodes — Q2's data lives only on even nodes, so odd-origin Q2 clients
lose *all* their candidate servers for the window), and compares QA-NT
against greedy and round-robin on response time, losses, timeouts, and
recovery time.

Every cell runs under a :class:`repro.sim.faults.FaultSpec` whose
``fault_seed`` the sweep runner derives per cell from ``--fault-seed``,
so fault schedules are reproducible independently of the workload seeds
and identical across serial and ``--jobs N`` executions.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

from ..allocation import GreedyAllocator, QantAllocator, RoundRobinAllocator
from ..sim import FederationConfig, build_federation
from ..sim.faults import FaultSpec, half_partition
from ..sim.metrics import recovery_time_ms
from ..workload import PoissonArrivals, build_trace
from .setups import World, two_query_world
from .spec import ScalePreset, ScenarioSpec, register

__all__ = [
    "CHAOS_GRID",
    "chaos_cell",
]

#: The drop-rate x churn-rate grid (3x3): message drop probability per
#: leg, crossed with node crashes per node per simulated minute.
DROP_RATES = (0.0, 0.05, 0.15)
CHURN_RATES = (0.0, 1.0, 3.0)
CHAOS_GRID = tuple(
    (drop, churn) for drop in DROP_RATES for churn in CHURN_RATES
)

_FACTORIES = {
    "qa-nt": QantAllocator,
    "greedy": GreedyAllocator,
    "round-robin": RoundRobinAllocator,
}


def chaos_cell(
    mechanism: str,
    point: Tuple[float, float],
    point_index: int,
    seed: int,
    num_nodes: int = 20,
    horizon_ms: float = 20_000.0,
    load_fraction: float = 0.7,
    partition: bool = True,
    spike_probability: float = 0.05,
    spike_ms: float = 25.0,
    fault_seed: int = 0,
    world: Optional[World] = None,
) -> Dict[str, float]:
    """One (mechanism, (drop, churn), seed) chaos cell.

    ``point`` is the ``(drop_probability, crash_rate_per_min)`` pair.  A
    half-federation partition (even vs odd nodes) covers the middle fifth
    of the horizon when ``partition`` is set; latency spikes ride along at
    ``spike_probability`` so the bid-timeout path is always exercised.
    """
    drop, churn = point
    world = world or two_query_world(num_nodes=num_nodes, seed=seed)
    capacity = world.capacity_qpms([2.0, 1.0])
    trace = build_trace(
        {
            0: PoissonArrivals(load_fraction * capacity * 2.0 / 3.0),
            1: PoissonArrivals(load_fraction * capacity / 3.0),
        },
        horizon_ms=horizon_ms,
        origin_nodes=world.placement.node_ids,
        seed=seed + 1,
    )
    partition_start = 0.4 * horizon_ms
    partition_end = 0.6 * horizon_ms
    partitions = ()
    if partition:
        partitions = (
            half_partition(
                world.placement.node_ids, partition_start, partition_end
            ),
        )
    spec = FaultSpec(
        drop_probability=drop,
        spike_probability=spike_probability,
        spike_ms=spike_ms,
        partitions=partitions,
        crash_rate_per_min=churn,
        fault_seed=fault_seed,
    )
    federation = build_federation(
        world.specs,
        world.placement,
        world.classes,
        world.cost_model,
        _FACTORIES[mechanism](),
        FederationConfig(seed=seed + 2, drain_ms=40_000.0, faults=spec),
    )
    metrics = federation.run(trace)
    # Recovery: time after the partition heals until mean response returns
    # to the pre-fault baseline (queries arriving before the partition).
    baseline_sum = 0.0
    baseline_count = 0
    for outcome in metrics.outcomes:
        if outcome.arrival_ms < partition_start:
            baseline_sum += outcome.response_ms
            baseline_count += 1
    baseline_ms = (
        baseline_sum / baseline_count if baseline_count else math.nan
    )
    recovery_ms = (
        recovery_time_ms(metrics, baseline_ms=baseline_ms, from_ms=partition_end)
        if partition
        else math.nan
    )
    counters = metrics.counters
    return {
        "mean_response_ms": metrics.mean_response_ms(),
        "completed": metrics.completed,
        "dropped": metrics.dropped,
        "messages": federation.network.messages_sent,
        "timeouts": counters["timeouts"],
        "lost_messages": counters["lost_messages"],
        "degraded_assignments": counters["degraded_assignments"],
        "fault_retries": counters["fault_retries"],
        "crash_count": counters["crash_count"],
        "partition_ms": counters["partition_ms"],
        "mean_resubmissions": metrics.mean_resubmissions(),
        "recovery_ms": recovery_ms,
    }


register(
    ScenarioSpec(
        name="chaos",
        title="C1 — robustness under message drops, partitions, and churn",
        cell=chaos_cell,
        axis="(drop, churn/min)",
        mechanisms=("qa-nt", "greedy", "round-robin"),
        primary_metric="mean_response_ms",
        fault_aware=True,
        scales={
            "small": ScalePreset(
                points=CHAOS_GRID,
                fixed={"num_nodes": 20, "horizon_ms": 20_000.0},
            ),
            "paper": ScalePreset(
                points=CHAOS_GRID,
                fixed={"num_nodes": 100, "horizon_ms": 60_000.0},
            ),
        },
    )
)
