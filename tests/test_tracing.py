"""Tests for repro.sim.tracing (market observability)."""

import pytest

from repro.allocation import QantAllocator
from repro.experiments.setups import (
    sinusoid_trace_for_load,
    two_query_world,
)
from repro.sim import FederationConfig, build_federation
from repro.sim.tracing import MarketTracer


@pytest.fixture(scope="module")
def traced_run():
    world = two_query_world(num_nodes=8, seed=6)
    allocator = QantAllocator()
    tracer = MarketTracer(allocator)
    federation = build_federation(
        world.specs,
        world.placement,
        world.classes,
        world.cost_model,
        allocator,
        FederationConfig(seed=7, drain_ms=60_000.0),
    )
    trace = sinusoid_trace_for_load(
        world, load_fraction=2.0, horizon_ms=15_000.0, seed=8
    )
    federation.run(trace)
    return tracer, federation


class TestMarketTracer:
    def test_snapshots_collected_every_period(self, traced_run):
        tracer, federation = traced_run
        assert tracer.snapshots
        times = sorted({s.time_ms for s in tracer.snapshots})
        # One batch of snapshots per period boundary (and the bind-time one).
        assert len(times) > 10

    def test_snapshot_covers_every_node(self, traced_run):
        tracer, federation = traced_run
        node_ids = {s.node_id for s in tracer.snapshots}
        assert node_ids == set(federation.nodes)

    def test_price_series_monotone_time(self, traced_run):
        tracer, __ = traced_run
        series = tracer.price_series(node_id=0)
        times = [t for t, __ in series]
        assert times == sorted(times)
        assert all(price > 0 for __, price in series)

    def test_price_series_specific_class(self, traced_run):
        tracer, __ = traced_run
        series = tracer.price_series(node_id=0, class_index=0)
        assert series

    def test_overload_detected_via_prices(self, traced_run):
        # At 2x capacity the decentralised overload signal must fire.
        tracer, __ = traced_run
        overloaded = tracer.overload_periods(threshold=2.0)
        assert overloaded

    def test_supply_totals(self, traced_run):
        tracer, __ = traced_run
        totals = tracer.supply_totals(node_id=0)
        assert totals
        assert all(total >= 0 for __, total in totals)

    def test_tracer_works_with_partial_adoption(self):
        """Tracing must also cover a run the listing prices (no dispatcher:
        only half the nodes adopt QA-NT)."""
        world = two_query_world(num_nodes=6, seed=9)
        allocator = QantAllocator(adopters=range(3))
        tracer = MarketTracer(allocator)
        federation = build_federation(
            world.specs,
            world.placement,
            world.classes,
            world.cost_model,
            allocator,
            FederationConfig(seed=10, drain_ms=30_000.0),
        )
        trace = sinusoid_trace_for_load(
            world, load_fraction=1.0, horizon_ms=5_000.0, seed=11
        )
        federation.run(trace)
        assert tracer.snapshots
        assert tracer.price_series(node_id=0)
