"""Every offered query is counted once: completed, dropped or in flight.

The identity ``completed + dropped + in_flight == len(trace)`` holds on
both engines at every drain window.  The event engine used to lose a
query assigned within its negotiation delay of the end of the run: its
enqueue never fired, so it was in no count and had no censored wait.
"""

import pytest

from repro.allocation import GreedyAllocator, QantAllocator
from repro.experiments.setups import (
    run_mechanism,
    sinusoid_trace_for_load,
    two_query_world,
    zipf_world,
)
from repro.sim import FederationConfig, ShardedFederation
from repro.workload.trace import zipf_trace

from listing_allocator import ListingAllocator

DRAINS_MS = (0.0, 1_000.0, 60_000.0)


def _assert_conserved(metrics, offered):
    counted = metrics.completed + metrics.dropped + metrics.in_flight
    assert counted == offered, (
        metrics.completed,
        metrics.dropped,
        metrics.in_flight,
    )
    # One censored wait per query the run left unfinished.
    waits = metrics._unfinished_wait_ms
    assert len(waits) == metrics.dropped + metrics.in_flight
    assert min(waits, default=0.0) >= 0.0


@pytest.mark.parametrize("drain_ms", DRAINS_MS)
@pytest.mark.parametrize(
    "factory",
    [QantAllocator, GreedyAllocator, ListingAllocator],
    ids=["qa-nt", "greedy", "listing"],
)
def test_event_engine_counts_every_query(factory, drain_ms):
    world = two_query_world(100, seed=0)
    trace = sinusoid_trace_for_load(
        world,
        load_fraction=0.5,
        horizon_ms=20_000.0,
        frequency_hz=0.05,
        seed=10,
    )
    config = FederationConfig(seed=2, drain_ms=drain_ms)
    run = run_mechanism(world, trace, "m", factory, config)
    _assert_conserved(run.metrics, len(trace))


def test_event_engine_counts_a_burst_committed_at_the_cut():
    """Three queries committed in the last tick, none enqueued by the
    cut: each is in flight, with its wait from arrival to the cut."""
    world = two_query_world(100, seed=0)
    trace = sinusoid_trace_for_load(
        world,
        load_fraction=3.0,
        horizon_ms=20_000.0,
        frequency_hz=0.05,
        seed=10,
    )
    config = FederationConfig(seed=2, drain_ms=0.0)
    metrics = run_mechanism(world, trace, "greedy", GreedyAllocator, config).metrics
    _assert_conserved(metrics, len(trace))
    # Greedy refuses nothing, so the lost queries' waits come last.
    assert metrics.dropped == 0
    times = trace.times_ms
    assert metrics._unfinished_wait_ms[-3:] == (times[-1] - times[-3:]).tolist()


@pytest.mark.parametrize("drain_ms", DRAINS_MS)
@pytest.mark.parametrize("mechanism", ["qa-nt", "greedy"])
def test_sharded_planes_count_every_query(mechanism, drain_ms):
    world = zipf_world(num_nodes=50, num_classes=20, seed=0)
    trace = list(
        zipf_trace(
            20,
            mean_interarrival_ms=120.0,
            horizon_ms=60_000.0,
            origin_nodes=list(world.placement.node_ids),
            max_queries=400,
            seed=10,
        )
    )
    config = FederationConfig(seed=2, drain_ms=drain_ms)
    with ShardedFederation(
        world.specs,
        world.placement,
        world.classes,
        world.cost_model,
        config=config,
        shards=2,
        mode="inline",
    ) as federation:
        run = federation.run(trace, mechanism)
    assert run.completed + run.dropped + run.in_flight == len(trace)
