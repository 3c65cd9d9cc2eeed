"""Scaling curve — federation size sweep over the batched dispatch path.

The paper's experiments stop at 100 nodes; this scenario measures how the
two headline mechanisms behave as the federation grows to 1,000 nodes
while the offered load stays at a fixed fraction of system capacity (so
bigger federations see proportionally more queries).  It is also the
showcase for the market-tick batch dispatcher: arrival timestamps are
quantised onto a coarse tick grid, so same-tick arrivals genuinely
coalesce into multi-query batches and the vectorised fan-out
(:mod:`repro.allocation.market_tick`) carries the bidding load.

Reported per cell, beyond the standard sweep metrics: end-to-end
throughput, the p99 response tail (tails degrade before means as the
candidate sets grow), and the dispatcher's batch counters
(:meth:`repro.sim.metrics.MetricsCollector.batch_summary`).
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, Optional

import numpy as np

from ..allocation import GreedyAllocator, QantAllocator
from ..sim import FederationConfig, ShardedFederation
from ..workload import Trace, WorkloadEvent, trace_columns
from .setups import run_mechanism, sinusoid_trace_for_load, two_query_world
from .spec import ScalePreset, ScenarioSpec, register

__all__ = [
    "quantise_trace",
    "scaling_cell",
    "sharded_scaling_cell",
    "million_query_run",
]

#: Mechanism pair the scaling curve compares.
_PAIR = {"qa-nt": QantAllocator, "greedy": GreedyAllocator}

#: Default arrival-tick width.  Coarse enough that a loaded federation
#: sees several arrivals per tick (real batches for the dispatcher),
#: fine enough that the workload still tracks the sinusoid.
DEFAULT_TICK_MS = 25.0


def quantise_trace(trace: Iterable[WorkloadEvent], tick_ms: float) -> Trace:
    """Floor every arrival timestamp onto a ``tick_ms`` grid.

    Events keep their order (flooring a sorted sequence preserves
    sortedness), so the federation's stream scheduler accepts the result
    and every group of same-tick arrivals becomes one market-tick batch.
    """
    if tick_ms <= 0.0:
        raise ValueError("tick_ms must be positive")
    times, classes, origins = trace_columns(trace)
    return Trace(np.floor(times / tick_ms) * tick_ms, classes, origins)


def scaling_cell(
    mechanism: str,
    num_nodes: int,
    point_index: int,
    seed: int,
    load_fraction: float = 1.5,
    horizon_ms: float = 5_000.0,
    frequency_hz: float = 0.05,
    tick_ms: float = DEFAULT_TICK_MS,
    config: Optional[FederationConfig] = None,
) -> Dict[str, float]:
    """One (mechanism, federation-size, seed) cell of the scaling curve.

    Seed plumbing mirrors :func:`repro.experiments.fig5.fig5a_cell`
    (world ``seed``, trace ``seed + 10 + point_index``, federation
    ``seed + 2``), so both mechanisms of one point are paired on the
    same trace.  The load fraction is held constant across sizes: the
    trace generator scales the arrival rate with the world's capacity,
    so a 1,000-node cell negotiates ten times the queries of a 100-node
    cell.
    """
    num_nodes = int(num_nodes)
    world = two_query_world(num_nodes=num_nodes, seed=seed)
    trace = quantise_trace(
        sinusoid_trace_for_load(
            world,
            load_fraction=load_fraction,
            horizon_ms=horizon_ms,
            frequency_hz=frequency_hz,
            seed=seed + 10 + point_index,
        ),
        tick_ms,
    )
    run = run_mechanism(
        world,
        trace,
        mechanism,
        _PAIR[mechanism],
        config or FederationConfig(seed=seed + 2),
    )
    metrics = run.metrics
    payload = run.metrics_dict()
    payload["offered_queries"] = float(len(trace))
    payload["throughput_qps"] = metrics.completed / (horizon_ms / 1000.0)
    payload["p99_response_ms"] = metrics.percentile_response_ms(0.99)
    payload.update(metrics.batch_summary())
    return payload


register(
    ScenarioSpec(
        name="scaling",
        title="Scaling curve — throughput and p99 vs federation size",
        axis="num_nodes",
        mechanisms=("qa-nt", "greedy"),
        cell=scaling_cell,
        scales={
            "small": ScalePreset(points=(30, 60)),
            "paper": ScalePreset(points=(100, 300, 1000)),
        },
    )
)


def sharded_scaling_cell(
    mechanism: str,
    shards: int,
    point_index: int,
    seed: int,
    num_nodes: int = 1_000,
    load_fraction: float = 1.5,
    horizon_ms: float = 2_000.0,
    frequency_hz: float = 0.05,
    tick_ms: float = DEFAULT_TICK_MS,
    mode: str = "fork",
) -> Dict[str, float]:
    """One (mechanism, shard-count, seed) cell of the shard-axis curve.

    The sweep axis is the *shard count*, not the federation size: every
    point of one seed negotiates the identical world and trace (trace
    seed ``seed + 10`` with no ``point_index`` term, deliberately unlike
    :func:`scaling_cell`).  Across the multi-process points (``shards >=
    2``) the invariant metrics — completed, dropped, response moments —
    coincide exactly and only the wall clock and shard counters move.
    ``shards=1`` delegates to the single-process engine that runs every
    figure (byte-identical to the existing goldens), whose
    event-granular negotiation interleaving differs from the tick market
    of the planes, so the origin's response moments are that engine's
    own.
    """
    shards = int(shards)
    world = two_query_world(num_nodes=int(num_nodes), seed=seed)
    trace = quantise_trace(
        sinusoid_trace_for_load(
            world,
            load_fraction=load_fraction,
            horizon_ms=horizon_ms,
            frequency_hz=frequency_hz,
            seed=seed + 10,
        ),
        tick_ms,
    )
    started = time.perf_counter()
    with ShardedFederation(
        world.specs,
        world.placement,
        world.classes,
        world.cost_model,
        config=FederationConfig(seed=seed + 2),
        shards=shards,
        mode=mode,
    ) as federation:
        result = federation.run(trace, mechanism)
        wall_ms = (time.perf_counter() - started) * 1000.0
        payload: Dict[str, float] = {
            "shards": float(shards),
            "completed": float(result.completed),
            "dropped": float(result.dropped),
            "offered_queries": float(len(trace)),
            "throughput_qps": result.completed / (horizon_ms / 1000.0),
            "mean_response_ms": result.mean_response_ms(),
            "p99_response_ms": result.percentile_response_ms(0.99),
            "messages": float(result.messages),
            "wall_ms": wall_ms,
        }
        payload.update(result.batch_summary())
        # The shards=1 origin delegates to the single-process engine,
        # whose batch_summary() has no shard keys; the sweep aggregator
        # needs one uniform key set across the whole axis.
        payload.setdefault("cross_shard_bids", 0.0)
        payload.setdefault("barrier_wait_ms", 0.0)
        payload.setdefault("shard_imbalance", 1.0)
        payload.setdefault("reconcile_barriers", 0.0)
        payload.setdefault("local_classes", 0.0)
        payload.setdefault("residual_classes", 0.0)
        payload.setdefault("closed_settled", 0.0)
    return payload


register(
    ScenarioSpec(
        name="scaling-shards",
        title="Shard-axis curve — wall clock and shard counters vs "
        "shard count at fixed federation size",
        axis="shards",
        mechanisms=("qa-nt", "greedy"),
        cell=sharded_scaling_cell,
        scales={
            "small": ScalePreset(
                points=(1, 2), fixed={"num_nodes": 30, "mode": "inline"}
            ),
            "paper": ScalePreset(points=(1, 2, 4, 8)),
        },
    )
)


def million_query_run(
    shards: int = 4,
    target_queries: int = 1_000_000,
    num_nodes: int = 1_000,
    load_fraction: float = 1.5,
    seed: int = 0,
    tick_ms: float = DEFAULT_TICK_MS,
) -> Dict[str, float]:
    """The ROADMAP's million-query market on one machine.

    Stretches the sinusoid horizon until the offered trace reaches
    ``target_queries`` (the generator scales arrivals with capacity, so
    the horizon needed is estimated from a short probe trace and then
    corrected), streams it through a ``shards``-way forked federation,
    each plane taking its slice of the trace as ``slice`` frames of four
    columns cut at tick edges (``shards.engine._slice_batches``), and returns
    the flat cell payload plus the realised horizon.  QA-NT only — at
    this scale one mechanism is the experiment.
    """
    world = two_query_world(num_nodes=int(num_nodes), seed=seed)
    probe_ms = 10_000.0
    probe = sinusoid_trace_for_load(
        world,
        load_fraction=load_fraction,
        horizon_ms=probe_ms,
        frequency_hz=0.05,
        seed=seed + 10,
    )
    horizon_ms = probe_ms * (target_queries / max(1, len(probe)))
    # The probe extrapolation can undershoot (the sinusoid's density
    # varies over the horizon), so stretch until the offered trace
    # really reaches the target — the run must earn its name.
    while True:
        trace = quantise_trace(
            sinusoid_trace_for_load(
                world,
                load_fraction=load_fraction,
                horizon_ms=horizon_ms,
                frequency_hz=0.05,
                seed=seed + 10,
            ),
            tick_ms,
        )
        if len(trace) >= target_queries:
            break
        horizon_ms *= 1.05 * (target_queries / max(1, len(trace)))
    started = time.perf_counter()
    with ShardedFederation(
        world.specs,
        world.placement,
        world.classes,
        world.cost_model,
        config=FederationConfig(seed=seed + 2),
        shards=int(shards),
        mode="fork",
    ) as federation:
        result = federation.run(trace, "qa-nt")
        wall_ms = (time.perf_counter() - started) * 1000.0
        payload: Dict[str, float] = {
            "shards": float(shards),
            "offered_queries": float(len(trace)),
            "horizon_ms": horizon_ms,
            "completed": float(result.completed),
            "dropped": float(result.dropped),
            "mean_response_ms": result.mean_response_ms(),
            "p99_response_ms": result.percentile_response_ms(0.99),
            "messages": float(result.messages),
            "wall_ms": wall_ms,
            "queries_per_wall_s": result.completed / (wall_ms / 1000.0),
        }
        payload.update(result.batch_summary())
    return payload
