"""Extension experiment F1 — node failures (the paper's Section 1 motivation).

The paper motivates autonomic query allocation with temporary overloads
caused by, among other things, "multiple node failures".  This experiment
injects exactly that: a fraction of the federation's nodes goes down for
a window in the middle of a steady workload, shrinking system capacity
below the offered load, and the mechanisms are compared on how the
response time degrades during the outage and how quickly it recovers.

Failed nodes drain their committed queue but accept no new queries;
every mechanism sees the same failure schedule.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, Tuple

from ..allocation import Allocator, GreedyAllocator, QantAllocator
from ..sim import FederationConfig, build_federation
from ..sim.faults import FaultSpec
from ..sim.metrics import recovery_time_ms
from ..workload import PoissonArrivals, build_trace
from .setups import World, two_query_world
from .spec import ScalePreset, ScenarioSpec, register

__all__ = [
    "failed_node_ids",
    "failures_cell",
]


def failed_node_ids(
    node_ids: Iterable[int], failed_fraction: float
) -> Tuple[int, ...]:
    """The nodes an outage of ``failed_fraction`` of the federation takes."""
    # Fail every k-th node so both Q2-capable (even) and Q1-only nodes go.
    stride = max(1, int(1 / failed_fraction))
    return tuple(nid for nid in node_ids if nid % stride == 0)


def _failure_phases(
    world: World,
    trace,
    factory: Callable[[], Allocator],
    failed: Tuple[int, ...],
    outage_window_ms: Tuple[float, float],
    seed: int,
) -> Dict[str, float]:
    """Run one mechanism under the outage schedule; mean response per phase.

    The outage window is expressed as a scripted :class:`FaultSpec` and
    driven through the fault scheduler, the chaos experiments' machinery
    (a failed node drains its queue and accepts nothing new).  A
    node-fault-only spec leaves the network and allocator message paths
    untouched.
    """
    start_ms, end_ms = outage_window_ms
    federation = build_federation(
        world.specs,
        world.placement,
        world.classes,
        world.cost_model,
        factory(),
        FederationConfig(
            seed=seed + 2,
            drain_ms=120_000.0,
            faults=FaultSpec(
                scripted_outages={nid: ((start_ms, end_ms),) for nid in failed}
            ),
        ),
    )
    metrics = federation.run(trace)
    phases = _phase_means(metrics, start_ms, end_ms)
    phases["recovery_ms"] = recovery_time_ms(
        metrics, baseline_ms=phases["before"], from_ms=end_ms
    )
    return phases


def failures_cell(
    mechanism: str,
    failed_fraction: float,
    point_index: int,
    seed: int,
    num_nodes: int = 40,
    outage_window_ms: Tuple[float, float] = (20_000.0, 40_000.0),
    horizon_ms: float = 60_000.0,
    load_fraction: float = 0.6,
) -> Dict[str, float]:
    """One (mechanism, failed fraction, seed) sweep cell.

    Steady Poisson load; a node subset fails mid-run.  ``load_fraction``
    is relative to the *healthy* capacity, so with 30 % of nodes down a
    0.6 load typically exceeds the surviving capacity — the paper's
    transient-overload scenario.
    """
    if not 0 < failed_fraction < 1:
        raise ValueError("failed fraction must be in (0, 1)")
    start_ms, end_ms = outage_window_ms
    if not 0 < start_ms < end_ms <= horizon_ms:
        raise ValueError("outage window must lie inside the horizon")
    world = two_query_world(num_nodes=num_nodes, seed=seed)
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
    failed = failed_node_ids(world.placement.node_ids, failed_fraction)
    factories = {"qa-nt": QantAllocator, "greedy": GreedyAllocator}
    phases = _failure_phases(
        world, trace, factories[mechanism], failed, outage_window_ms, seed
    )
    return {
        "before_ms": phases["before"],
        "during_ms": phases["during"],
        "after_ms": phases["after"],
        "degradation": phases["during"] / phases["before"],
        "recovery_ms": phases["recovery_ms"],
    }


def _phase_means(
    metrics, start_ms: float, end_ms: float
) -> Dict[str, float]:
    sums = {"before": 0.0, "during": 0.0, "after": 0.0}
    counts = {"before": 0, "during": 0, "after": 0}
    for outcome in metrics.outcomes:
        if outcome.arrival_ms < start_ms:
            phase = "before"
        elif outcome.arrival_ms < end_ms:
            phase = "during"
        else:
            phase = "after"
        sums[phase] += outcome.response_ms
        counts[phase] += 1
    return {
        phase: (sums[phase] / counts[phase]) if counts[phase] else math.nan
        for phase in sums
    }


register(
    ScenarioSpec(
        name="failures",
        title="F1 — response-time degradation under node failures",
        cell=failures_cell,
        axis="failed_fraction",
        mechanisms=("qa-nt", "greedy"),
        primary_metric="during_ms",
        scales={
            "small": ScalePreset(points=(0.3,), fixed={"num_nodes": 30}),
            "paper": ScalePreset(points=(0.3,), fixed={"num_nodes": 100}),
        },
    )
)
