"""The lazily materialised agent view of the array-resident market state.

Inside a federation run the period engine's matrices (plus the market-
tick dispatcher's per-class lanes) hold the QA-NT market state and the
agent objects are only written when someone asks for them through
``QantAllocator.sync_market_state()``.  The contract is that nobody can
tell: whenever and however often an observer asks, every agent holds
exactly what a scalar run over always-live lists holds at the same point,
and the run's outcomes do not depend on who looked.  The reference twin
in these tests is that scalar run — same world, same trace, dispatcher
removed, so every exchange walks the agents' lists and every boundary
adopts and materialises.
"""

import hashlib
import json
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.allocation import GreedyAllocator, QantAllocator
from repro.core.period_engine import BATCHED_METHODS
from repro.core.qant import QantParameters
from repro.experiments.scaling import quantise_trace
from repro.experiments.setups import (
    sinusoid_trace_for_load,
    two_query_world,
    zipf_trace_for_world,
    zipf_world,
)
from repro.query.model import Query
from repro.sim import FederationConfig, build_federation
from repro.sim.faults import FaultSpec
from repro.sim.tracing import MarketTracer

from test_golden_trace import GOLDEN_DIR, _outcome_digest


def _full_state(allocator):
    """Every field of every agent the lazy view has to reproduce."""
    return [
        (
            node_id,
            tuple(agent._price_values),
            agent._price_epoch,
            agent.max_price,
            tuple(agent._remaining),
            tuple(agent._credit),
            tuple(agent._accepted),
            tuple(agent._refused),
            agent.planned_supply.components,
            agent._enforce_locked_at,
            agent.supply_set.capacity_ms,
        )
        for node_id, agent in sorted(allocator.agents.items())
    ]


def _world_and_trace(num_nodes, load, horizon_ms=1_500.0, trace_seed=9):
    world = two_query_world(num_nodes=num_nodes, seed=0)
    trace = quantise_trace(
        sinusoid_trace_for_load(
            world,
            load_fraction=load,
            horizon_ms=horizon_ms,
            frequency_hz=0.05,
            seed=trace_seed,
        ),
        25.0,
    )
    return world, trace


def _two_class_case(num_nodes, load):
    """Two classes, every agent bidding in both; the outage hits node 1."""
    return (*_world_and_trace(num_nodes, load), 1)


def _zipf_case(num_nodes, load):
    """Six classes of five bidders each, agents bidding in up to four.

    One agent-global ``max_price``, latch and price epoch are then shared
    by several per-class lanes, and most of the fleet never trades.  The
    per-class inter-arrival of 8 / 4.8 ms is past capacity either way
    (the overload world of tests/test_batch_dispatch.py on a larger
    fleet).  The outage hits the agent that bids in the most classes.
    """
    world = zipf_world(
        num_nodes=num_nodes, num_relations=40, num_classes=6, max_joins=3, seed=0
    )
    trace = quantise_trace(
        zipf_trace_for_world(
            world, mean_interarrival_ms=12.0 / load, horizon_ms=1_500.0, seed=9
        ),
        25.0,
    )
    bids = Counter(
        node_id
        for query_class in world.classes
        for node_id in query_class.candidate_nodes(world.placement)
    )
    return world, trace, max(sorted(bids), key=bids.get)


def _observe_every(allocator, name, every, snapshots):
    """Wrap ``allocator.<name>``: sync + snapshot after every j-th call."""
    if every is None:
        return
    original = getattr(allocator, name)
    calls = [0]

    def observed(*args, **kwargs):
        result = original(*args, **kwargs)
        calls[0] += 1
        if calls[0] % every == 0:
            allocator.sync_market_state()
            snapshots.append((name, calls[0], _full_state(allocator)))
        return result

    setattr(allocator, name, observed)


def _run(
    world,
    trace,
    scalar=False,
    batch_every=None,
    boundary_every=None,
    faults=None,
    parameters=None,
    prepare=None,
):
    """One qa-nt run; ``scalar`` removes the dispatcher (the reference)."""
    allocator = QantAllocator(parameters=parameters)
    federation = build_federation(
        world.specs,
        world.placement,
        world.classes,
        world.cost_model,
        allocator,
        FederationConfig(seed=2, batch_ticks=True, faults=faults),
    )
    if scalar:
        allocator._dispatcher = None
    snapshots = []
    _observe_every(allocator, "assign_batch", batch_every, snapshots)
    _observe_every(allocator, "on_period_start", boundary_every, snapshots)
    if prepare is not None:
        prepare(allocator)
    baseline = allocator.period_engine_stats.materialised
    metrics = federation.run(trace)
    return {
        "allocator": allocator,
        "metrics": metrics,
        "digest": _outcome_digest(metrics.outcomes),
        "messages": federation.network.messages_sent,
        "snapshots": snapshots,
        "final": _full_state(allocator),
        "materialised": allocator.period_engine_stats.materialised - baseline,
    }


def _assert_same_market(lazy, reference):
    assert lazy["digest"] == reference["digest"]
    assert lazy["messages"] == reference["messages"]
    assert lazy["metrics"].dropped == reference["metrics"].dropped
    assert len(lazy["snapshots"]) == len(reference["snapshots"])
    for got, want in zip(lazy["snapshots"], reference["snapshots"]):
        assert got == want, "agent view diverged at %s call %d" % got[:2]
    assert lazy["final"] == reference["final"]


def _outage(node_id):
    """``node_id`` is down from mid-period 2 to mid-period 3.

    Its classes run partial fan-outs through the scalar loop (which
    writes the lists), after which the vector path and the array-resident
    state resume.
    """
    return FaultSpec(scripted_outages={node_id: ((750.0, 1_250.0),)})


_CADENCE = st.sampled_from([None, 1, 2, 3, 7])


@settings(max_examples=15, deadline=None)
@given(
    st.sampled_from([_two_class_case, _zipf_case]),
    st.integers(min_value=60, max_value=100),
    st.sampled_from([1.5, 2.5]),
    _CADENCE,
    _CADENCE,
    st.booleans(),
)
@example(_zipf_case, 60, 2.5, None, None, True)
@example(_zipf_case, 100, 1.5, 3, 2, True)
@example(_two_class_case, 80, 2.5, None, 1, True)
def test_observers_never_change_or_misread_the_market(
    make_case, num_nodes, load, batch_every, boundary_every, outage
):
    # Whoever looks, whenever: after each j-th batch and/or boundary
    # (None = never, 1 = always).  Every look must show the scalar twin's
    # agents, and looking must not move a single outcome bit.  At 2.5x
    # load classes saturate, so deferred refusal counts are in play.
    world, trace, outage_node = make_case(num_nodes, load)
    faults = _outage(outage_node) if outage else None
    lazy = _run(
        world,
        trace,
        batch_every=batch_every,
        boundary_every=boundary_every,
        faults=faults,
    )
    reference = _run(
        world,
        trace,
        scalar=True,
        batch_every=batch_every,
        boundary_every=boundary_every,
        faults=faults,
    )
    _assert_same_market(lazy, reference)
    stats = lazy["allocator"].batch_dispatch_stats
    assert stats.vector_exchanges > 0
    if outage:
        assert stats.scalar_fallbacks > 0


@pytest.mark.parametrize("carry", [True, False])
@pytest.mark.parametrize("method", sorted(BATCHED_METHODS))
def test_churn_fallback_and_resume_for_every_batched_solver(method, carry):
    # Crash-only churn (the tests/test_batch_dispatch.py world): inside
    # an outage window a query drops to the scalar loop mid-period — the
    # arrays are materialised, the lists written — and the next boundary
    # must re-adopt what the scalar loop left.  Per solver and carry-over
    # mode, since adopt/materialise carry credit, plans and capacities.
    world, trace = _world_and_trace(14, 1.5)
    parameters = QantParameters(supply_method=method, carry_over=carry)
    faults = FaultSpec(crash_rate_per_min=4.0, fault_seed=7)
    lazy = _run(world, trace, faults=faults, parameters=parameters)
    reference = _run(
        world, trace, scalar=True, faults=faults, parameters=parameters
    )
    _assert_same_market(lazy, reference)
    stats = lazy["allocator"].batch_dispatch_stats
    assert stats.scalar_fallbacks > 0, "no outage window hit a fan-out"
    assert stats.vector_exchanges > 0, "vector path never resumed"
    # Besides the end of the run, only the first fallback of a period
    # materialises anything.
    assert 1 < lazy["materialised"] <= 1 + stats.scalar_fallbacks


def test_unobserved_run_materialises_once_and_observed_run_shows_it():
    world, trace = _world_and_trace(60, 1.5)
    unobserved = _run(world, trace)
    engine = unobserved["allocator"].period_engine_stats
    assert unobserved["materialised"] == 1  # on_run_end, nothing else
    assert engine.ticks > 10
    # The counters travel with the run's artifact.
    summary = unobserved["metrics"].batch_summary()
    assert summary["market_materialised"] == engine.materialised
    assert summary["market_adopted"] == engine.adopted
    assert summary["scalar_fallbacks"] == 0.0

    # An observer that looks at every boundary forces one materialise
    # (and one re-adopt) per boundary, and the artifact says so.
    observed = _run(world, trace, boundary_every=1)
    boundaries = len(observed["snapshots"])
    assert boundaries == engine.ticks - 1  # all but the bind-time boundary
    assert observed["materialised"] == boundaries
    assert observed["digest"] == unobserved["digest"]
    assert (
        observed["metrics"].batch_summary()["market_materialised"]
        > summary["market_materialised"]
    )

    # Mechanisms without a period engine report zeros.
    greedy = build_federation(
        world.specs,
        world.placement,
        world.classes,
        world.cost_model,
        GreedyAllocator(),
        FederationConfig(seed=2),
    ).run(trace)
    assert greedy.batch_summary()["market_materialised"] == 0.0


def test_direct_api_use_leaves_agents_live_after_every_call():
    # Outside Federation.run there is no observer contract to lean on:
    # assign / assign_batch / on_period_start by hand must hand back
    # current agents every time, whichever path answered.
    world, trace = _world_and_trace(60, 2.5)
    twins = []
    for scalar in (False, True):
        allocator = QantAllocator()
        build_federation(
            world.specs,
            world.placement,
            world.classes,
            world.cost_model,
            allocator,
            FederationConfig(seed=2),
        )
        if scalar:
            allocator._dispatcher = None
        twins.append(allocator)
    vectorised, scalar = twins
    engine = vectorised._engine
    queries = [
        Query(
            qid=qid,
            class_index=event.class_index,
            origin_node=event.origin_node,
            arrival_ms=0.0,
        )
        for qid, event in enumerate(trace[:400])
    ]
    steps = []
    for start in range(0, len(queries), 80):
        chunk = queries[start:start + 80]
        steps.append(lambda a, c=chunk[:60]: a.assign_batch(c).node_ids)
        steps.extend(
            (lambda a, q=query: a.assign(q).node_id) for query in chunk[60:]
        )
        steps.append(lambda a: a.on_period_start())
    for step in steps:
        assert step(vectorised) == step(scalar)
        assert engine.agents_live
        assert _full_state(vectorised) == _full_state(scalar)
    assert vectorised.batch_dispatch_stats.vector_exchanges > 0


# --------------------------------------- the tracer on the 1,000-node cell

#: sha256 over every MarketTracer snapshot of the scaling_1000node qa-nt
#: cell, recorded on the parent commit (PR 13), where the agents' lists
#: were the market state and nothing was ever materialised late.
_PARENT_TRACER_DIGEST = (
    "4bd77a8ccf71695aa2dad9de8d1ae34403b47cf42ad4108d2109a7fb3612cf3b"
)


def _snapshot_digest(tracer) -> str:
    digest = hashlib.sha256()
    for snap in tracer.snapshots:
        digest.update(
            (
                "%r,%d,%r,%r;"
                % (snap.time_ms, snap.node_id, snap.prices, snap.planned_supply)
            ).encode()
        )
    return digest.hexdigest()


def test_traced_1000node_cell_matches_parent_snapshots_and_golden():
    # The tracer materialises at every boundary — the lazy view's worst
    # case — on the cell tests/golden/scaling_1000node_seed0.json pins.
    world, trace = _world_and_trace(
        1_000, 1.5, horizon_ms=2_000.0, trace_seed=10
    )
    tracers = []

    def attach(allocator):
        tracers.append(MarketTracer(allocator))

    run = _run(world, trace, prepare=attach)
    metrics = run["metrics"]
    golden = json.loads(
        (GOLDEN_DIR / "scaling_1000node_seed0.json").read_text()
    )["qa-nt"]
    assert run["digest"] == golden["outcome_digest"]
    assert metrics.completed == golden["completed"]
    assert metrics.mean_response_ms() == golden["mean_response_ms"]
    summary = metrics.batch_summary()
    for key, value in golden["batch_summary"].items():
        assert summary[key] == value, key
    assert _snapshot_digest(tracers[0]) == _PARENT_TRACER_DIGEST
    # One look per boundary: as many materialises as snapshots rounds.
    rounds = len(tracers[0].snapshots) // 1_000
    assert run["materialised"] == rounds
