"""One owner of the QA-NT market state: the period engine's arrays.

From bind to the end the period engine's lanes, priced through the
dispatcher's lane block, are the market: every exchange (an outage
window's partial fan-outs included) is a vector exchange, and no agent
object exists.  ``QantAllocator.market_state()`` reads every field the
listing's agents hold out of the arrays, and observers read its
projection ``QantAllocator.market_rows()``.  The contract is that nobody can tell: at every observation
point and after the run, the array twin shows what the paper listing run
whole (``tests/listing_allocator.py``, same world, same trace) shows,
and the run's outcomes do not depend on who looked.
"""

import hashlib
import json
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.allocation import QantAllocator
from repro.allocation import market_tick
from repro.core.qant import QantParameters, QantPricingAgent
from repro.core.supply import SUPPLY_METHODS
from repro.experiments.scaling import quantise_trace
from repro.experiments.setups import (
    sinusoid_trace_for_load,
    two_query_world,
    zipf_trace_for_world,
    zipf_world,
)
from repro.query.model import Query
from repro.sim import FederationConfig, build_federation
from repro.sim.faults import FaultSpec, half_partition
from repro.sim.tracing import MarketTracer

from listing_allocator import ListingAllocator
from test_golden_trace import GOLDEN_DIR, _outcome_digest


def _full_state(allocator):
    """Every field of every agent the array run has to match: prices,
    overload signal, remaining supply, credit, planned supply, enforce
    latch and free capacity."""
    return [
        (
            node_id,
            prices,
            max(prices),
            remaining,
            credit,
            planned,
            latch,
            capacity,
        )
        for node_id, (
            prices, remaining, credit, planned, capacity, latch
        ) in sorted(allocator.market_state())
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

    One agent-global ``max_price`` and latch are then shared by several
    per-class lanes, and most of the fleet never trades.  The
    classes are narrow, so the dispatcher's lane block prices them with
    the scalar twin.  The
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
    """Wrap ``allocator.<name>``: read ``market_rows()`` after every j-th
    call."""
    if every is None:
        return
    original = getattr(allocator, name)
    calls = [0]

    def observed(*args, **kwargs):
        result = original(*args, **kwargs)
        calls[0] += 1
        if calls[0] % every == 0:
            snapshots.append((name, calls[0], allocator.market_rows()))
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
    traced=False,
):
    """One qa-nt run; ``scalar`` runs the paper listing (the reference)."""
    allocator = (ListingAllocator if scalar else QantAllocator)(
        parameters=parameters
    )
    federation = build_federation(
        world.specs,
        world.placement,
        world.classes,
        world.cost_model,
        allocator,
        FederationConfig(seed=2, batch_ticks=True, faults=faults),
    )
    # Attached after bind: one snapshot round per in-run boundary.
    tracer = MarketTracer(allocator) if traced else None
    snapshots = []
    _observe_every(allocator, "assign_batch", batch_every, snapshots)
    _observe_every(allocator, "on_period_start", boundary_every, snapshots)
    negotiations = [0]
    quote = QantPricingAgent.quote

    def counted(*args):
        negotiations[0] += 1
        return quote(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(QantPricingAgent, "quote", counted)
        metrics = federation.run(trace)
    return {
        "allocator": allocator,
        "metrics": metrics,
        "digest": _outcome_digest(metrics.outcomes),
        "messages": federation.network.messages_sent,
        "snapshots": snapshots,
        "tracer": None if tracer is None else tracer.snapshots,
        "final": _full_state(allocator),
        "negotiations": negotiations[0],
    }


def _assert_same_market(array, reference):
    assert array["digest"] == reference["digest"]
    assert array["messages"] == reference["messages"]
    assert array["metrics"].dropped == reference["metrics"].dropped
    assert len(array["snapshots"]) == len(reference["snapshots"])
    for got, want in zip(array["snapshots"], reference["snapshots"]):
        assert got == want, "market rows diverged at %s call %d" % got[:2]
    assert array["tracer"] == reference["tracer"]
    assert array["final"] == reference["final"]


def _assert_one_owner(array):
    """The array twin never negotiated through the listing."""
    assert array["negotiations"] == 0
    summary = array["metrics"].batch_summary()
    assert summary["scalar_fallbacks"] == 0.0
    assert array["allocator"].batch_dispatch_stats.vector_exchanges > 0


def _outage(node_id):
    """``node_id`` is down from mid-period 2 to mid-period 3: its classes
    run partial fan-outs, which stay on the lane block."""
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
    # (None = never, 1 = always).  Mid-period looks read the period
    # engine's lanes as the exchanges left them; every look must show the
    # scalar twin's rows, and looking must not move a single outcome bit.
    # At 2.5x load classes saturate.  A Zipf outage must reach the scalar
    # exchange kernel with a partial fan-out.
    world, trace, outage_node = make_case(num_nodes, load)
    faults = _outage(outage_node) if outage else None
    kernel = market_tick.exchange_lanes_scalar
    masked = []

    def spy(*args):
        masked.append(not all(args[7]))
        return kernel(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(market_tick, "exchange_lanes_scalar", spy)
        array = _run(
            world,
            trace,
            batch_every=batch_every,
            boundary_every=boundary_every,
            faults=faults,
        )
    if make_case is _zipf_case:
        assert masked and (any(masked) or not outage)
    reference = _run(
        world,
        trace,
        scalar=True,
        batch_every=batch_every,
        boundary_every=boundary_every,
        faults=faults,
    )
    _assert_same_market(array, reference)
    _assert_one_owner(array)


@pytest.mark.parametrize("carry", [True, False])
@pytest.mark.parametrize("method", sorted(SUPPLY_METHODS))
def test_churn_fallback_and_resume_for_every_batched_solver(method, carry):
    # Outage windows, scripted and by crash-only churn: the partial
    # fan-outs inside them stay on the lane block, and the arrays carry
    # credit, plans and capacities through the whole run.  Per solver and
    # carry-over mode, the array twin must match the scalar twin on
    # outcomes, messages, the tracer's snapshot at every boundary and the
    # final agents.
    world, trace = _world_and_trace(14, 1.5)
    parameters = QantParameters(supply_method=method, carry_over=carry)
    for faults in (_outage(1), FaultSpec(crash_rate_per_min=4.0, fault_seed=7)):
        array = _run(
            world, trace, faults=faults, parameters=parameters, traced=True
        )
        reference = _run(
            world,
            trace,
            scalar=True,
            faults=faults,
            parameters=parameters,
            traced=True,
        )
        _assert_same_market(array, reference)
        _assert_one_owner(array)
        assert reference["negotiations"] > 0


def test_observed_run_and_its_artifact_are_the_unobserved_run():
    world, trace = _world_and_trace(60, 1.5)
    unobserved = _run(world, trace)
    summary = unobserved["metrics"].batch_summary()
    # The run's own period schedule: a boundary every `period_ms`, from
    # the first one to the end of the drain window (inclusive).
    config = FederationConfig()
    end_of_run = max(event.time_ms for event in trace) + config.drain_ms
    in_run = int(end_of_run // config.period_ms)
    assert in_run > 10

    # An observer at every boundary reads the arrays: the run, and what
    # its artifact says, are the unobserved run's.
    observed = _run(world, trace, boundary_every=1, traced=True)
    boundaries = len(observed["snapshots"])
    assert boundaries == in_run
    assert len(observed["tracer"]) == boundaries * 60
    assert observed["digest"] == unobserved["digest"]
    assert observed["metrics"].batch_summary() == summary


def test_direct_api_use_matches_the_listing_after_every_call():
    # Outside Federation.run the arrays are the market too: assign /
    # assign_batch / on_period_start by hand price on the lane block and
    # show, after every call, the agents the paper listing driven the
    # same way holds.
    world, trace = _world_and_trace(60, 2.5)
    twins = []
    for factory in (QantAllocator, ListingAllocator):
        allocator = factory()
        build_federation(
            world.specs,
            world.placement,
            world.classes,
            world.cost_model,
            allocator,
            FederationConfig(seed=2),
        )
        twins.append(allocator)
    vectorised, scalar = twins
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
        assert _full_state(vectorised) == _full_state(scalar)
        assert vectorised.market_rows() == scalar.market_rows()
    assert vectorised.batch_dispatch_stats.vector_exchanges > 0


def _chaos(node_ids):
    """The chaos golden's message and node faults (tests/test_golden_trace.py)."""
    return FaultSpec(
        drop_probability=0.05,
        spike_probability=0.05,
        partitions=(half_partition(node_ids, 800.0, 1_200.0),),
        crash_rate_per_min=2.0,
        fault_seed=7,
    )


#: Half the requests or replies lost: total silence is common, so the
#: stale-cache fallback (`MarketTickDispatcher.award`) runs.
_DROPS = FaultSpec(drop_probability=0.5, fault_seed=3)

_LISTING_CASES = {
    "chaos": (_chaos, {}),
    "chaos-half-adoption": (_chaos, {"adopters": range(0, 12, 2)}),
    "drops": (lambda ids: _DROPS, {}),
    "drops-half-adoption": (lambda ids: _DROPS, {"adopters": range(6)}),
    "six-of-twelve": (lambda ids: None, {"adopters": range(6)}),
    "no-adopters": (lambda ids: None, {"adopters": ()}),
    "greedy-solver-no-threshold": (
        lambda ids: None,
        {
            "parameters": QantParameters(supply_method="greedy"),
            "activation_threshold": None,
        },
    ),
}


@pytest.mark.parametrize("case", sorted(_LISTING_CASES))
def test_message_faults_and_partial_adoption_match_the_listing(case):
    # Message faults (the bidders that did not reply cannot win; total
    # silence falls back to the stale cache) and non-adopters (lanes that
    # always offer) on the lane block, against the listing run whole:
    # outcomes, messages, fault counters, market rows and final agents,
    # with the narrow classes on the scalar twin and on lane books.
    world = two_query_world(num_nodes=12, seed=0)
    trace = sinusoid_trace_for_load(
        world,
        load_fraction=1.5,
        horizon_ms=4_000.0,
        frequency_hz=0.05,
        seed=10,
    )
    make_faults, kwargs = _LISTING_CASES[case]
    faults = make_faults(world.placement.node_ids)

    def run(factory):
        allocator = factory(**kwargs)
        federation = build_federation(
            world.specs,
            world.placement,
            world.classes,
            world.cost_model,
            allocator,
            FederationConfig(seed=2, faults=faults),
        )
        metrics = federation.run(trace)
        return metrics, (
            _outcome_digest(metrics.outcomes),
            federation.network.messages_sent,
            metrics.dropped,
            metrics.fault_summary(),
            allocator.market_rows(),
            _full_state(allocator),
        )

    reference = run(ListingAllocator)[1]
    for crossover in (market_tick.SCALAR_LANES_MAX, 0):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(market_tick, "SCALAR_LANES_MAX", crossover)
            metrics, got = run(QantAllocator)
        assert got == reference
    if faults is _DROPS:
        assert metrics.counters["degraded_assignments"] > 0


def test_rearm_maxp_is_the_engine_row_maximum():
    # Each period the dispatcher's lane block re-derives every agent's
    # running maximum from the lanes plus the cells that are not lanes
    # (`maxp_base`).  On the paper's two-query world, class 1 has 50 of
    # 100 bidders, so half the rows carry a cell that is not a lane and
    # half do not; at every in-run boundary the block's maximum must be
    # the dense price row's maximum, the overload signal the agents keep.
    world, trace = _world_and_trace(100, 2.5)
    allocator = QantAllocator()
    federation = build_federation(
        world.specs,
        world.placement,
        world.classes,
        world.cost_model,
        allocator,
        FederationConfig(seed=2, batch_ticks=True),
    )
    engine, block = allocator._engine, allocator._dispatcher.block
    no_lane = ~engine._valid_cost.all(axis=1)
    assert no_lane.sum() == 50
    assert (engine.maxp_base[no_lane] == 1.0).all()
    assert (engine.maxp_base[~no_lane] == 0.0).all()
    seen, above, below = [], [], []
    on_period_start = allocator.on_period_start

    def checked():
        on_period_start()
        dense = [max(state[0]) for __, state in allocator.market_state()]
        seen.append(block.maxp.tolist() == dense)
        seen.append(not block.locked.any())
        # A lane raised past the non-lane cell's 1.0, and a row of lanes
        # only decayed below it.
        above.append((block.maxp[no_lane] > 1.0).any())
        below.append((block.maxp[~no_lane] < 1.0).any())

    allocator.on_period_start = checked
    federation.run(trace)
    assert len(seen) > 4 and all(seen)
    assert any(above) and any(below)


# --------------------------------------- the tracer on the 1,000-node cell

#: sha256 over every MarketTracer snapshot of the scaling_1000node qa-nt
#: cell, recorded on the parent commit (PR 13), where the agents' lists
#: were the market state and nothing was ever materialised late.
_PARENT_TRACER_DIGEST = (
    "4bd77a8ccf71695aa2dad9de8d1ae34403b47cf42ad4108d2109a7fb3612cf3b"
)


def _snapshot_digest(snapshots) -> str:
    digest = hashlib.sha256()
    for snap in snapshots:
        digest.update(
            (
                "%r,%d,%r,%r;"
                % (snap.time_ms, snap.node_id, snap.prices, snap.planned_supply)
            ).encode()
        )
    return digest.hexdigest()


def test_traced_1000node_cell_matches_parent_snapshots_and_golden():
    # The tracer reads the arrays at every boundary, on the cell
    # tests/golden/scaling_1000node_seed0.json pins.
    world, trace = _world_and_trace(
        1_000, 1.5, horizon_ms=2_000.0, trace_seed=10
    )
    run = _run(world, trace, traced=True)
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
    assert _snapshot_digest(run["tracer"]) == _PARENT_TRACER_DIGEST
