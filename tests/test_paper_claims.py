"""The paper's headline claims as inequalities on every engine, and one
differential bound between the event engine and the shard planes.

Engines: ``scalar`` is the paper listing (``tests/listing_allocator.py``,
whose every negotiation goes through ``QantPricingAgent.quote``),
``array`` is the event engine's vectorised
market (``MarketTickDispatcher`` + ``QantPeriodEngine``) and ``sharded``
is ``ShardedFederation(shards=2, mode="inline")``, the market planes.
Every claim holds on seeds 0-2 but the one marked as a known deviation;
none is a golden.
"""

import statistics

import pytest

from repro.allocation import GreedyAllocator, QantAllocator
from repro.experiments.setups import (
    sinusoid_trace_for_load,
    two_query_world,
    zipf_world,
)
from repro.sim import FederationConfig, ShardedFederation, build_federation
from repro.workload import PoissonArrivals, build_trace, zipf_trace

from listing_allocator import ListingAllocator

SEEDS = (0, 1, 2)
ENGINES = ("scalar", "array", "sharded")
HORIZON_MS = 20_000.0
PERIOD_MS = 500.0


@pytest.fixture(scope="module")
def world():
    return two_query_world(40)


def _traces(world, load):
    return {
        seed: sinusoid_trace_for_load(world, load, HORIZON_MS, seed=seed)
        for seed in SEEDS
    }


@pytest.fixture(scope="module")
def overload(world):
    return _traces(world, 1.5)


@pytest.fixture(scope="module")
def underload(world):
    return _traces(world, 0.5)


def _run(world, trace, engine, mechanism, seed):
    """``(queries executed inside the horizon, per-class mean price)``.

    Only executions inside the horizon count (Fig. 5's executed per
    period, summed): the engines disagree on what finishes after it, so
    no drain is simulated.  Prices are ``None`` where the engine exposes
    none (greedy; the planes keep theirs shard-local).
    """
    config = FederationConfig(seed=seed, drain_ms=0.0)
    if engine == "sharded":
        with ShardedFederation(
            world.specs,
            world.placement,
            world.classes,
            world.cost_model,
            config=config,
            shards=2,
            mode="inline",
        ) as federation:
            result = federation.run(trace, mechanism)
        return sum(result.executed_per_period(PERIOD_MS, HORIZON_MS)), None
    if mechanism != "qa-nt":
        allocator = GreedyAllocator()
    elif engine == "scalar":
        allocator = ListingAllocator()
    else:
        allocator = QantAllocator()
    federation = build_federation(
        world.specs,
        world.placement,
        world.classes,
        world.cost_model,
        allocator,
        config,
    )
    metrics = federation.run(trace)
    executed = sum(metrics.executed_per_period(PERIOD_MS, HORIZON_MS))
    if mechanism != "qa-nt":
        return executed, None
    if engine == "scalar":
        assert getattr(allocator, "batch_dispatch_stats", None) is None
    else:
        assert allocator.batch_dispatch_stats.vector_exchanges > 0
    prices = [
        statistics.mean(
            state[0][k]
            for node_id, state in allocator.market_state()
            if federation.nodes[node_id].can_evaluate(k)
        )
        for k in range(len(world.classes))
    ]
    return executed, prices


@pytest.mark.parametrize("engine", ENGINES)
def test_qant_executes_at_least_as_much_as_greedy_under_overload(
    world, overload, engine
):
    """Fig. 5: at 1.5x offered load QA-NT's refusals keep queries off
    overloaded nodes, so more of them finish inside the horizon."""
    for seed, trace in overload.items():
        qant, __ = _run(world, trace, engine, "qa-nt", seed)
        greedy, __ = _run(world, trace, engine, "greedy", seed)
        assert qant >= greedy, (seed, qant, greedy)


@pytest.mark.parametrize("engine", ["scalar", "array"])
def test_class_prices_rise_with_offered_load(
    world, underload, overload, engine
):
    """Virtual prices are the overload signal: every class's mean price
    is higher at 1.5x than at 0.5x offered load."""
    for seed in SEEDS:
        __, low = _run(world, underload[seed], engine, "qa-nt", seed)
        __, high = _run(world, overload[seed], engine, "qa-nt", seed)
        for k, (cheap, dear) in enumerate(zip(low, high)):
            assert dear > cheap, (seed, k, cheap, dear)


# -- differential bound: event engine (shards=1) vs market planes (shards=2) --

#: Measured on seeds 0-2 (qa-nt, planes over event engine): within-horizon
#: throughput x0.977-1.026, mean response x1.142-1.154, p99 x1.229-1.244,
#: drop fraction -0.0004..+0.0012.  Two causes push the planes' response
#: times up.  A plane charges each assignment its own negotiation delay,
#: where the event engine charges one exchange its slowest leg.  And the
#: event engine leaves out the queries still running when the drain ends
#: (87-92 here, the latest finishers), which the planes count as completed.
THROUGHPUT_BAND = (0.9, 1.1)
MEAN_RESPONSE_BAND = (1.0, 1.3)
P99_RESPONSE_BAND = (1.0, 1.4)
DROP_FRACTION_TOLERANCE = 0.01


@pytest.fixture(scope="module")
def zipf():
    return zipf_world(60, num_classes=24, seed=0)


def _sharded(world, trace, shards, mechanism, seed):
    with ShardedFederation(
        world.specs,
        world.placement,
        world.classes,
        world.cost_model,
        config=FederationConfig(seed=seed + 2),
        shards=shards,
        mode="inline",
    ) as federation:
        return federation.run(trace, mechanism)


@pytest.mark.parametrize("mechanism", ["qa-nt", "greedy"])
def test_planes_stay_within_bands_of_the_event_engine(zipf, mechanism):
    nodes = list(zipf.placement.node_ids)
    for seed in SEEDS:
        trace = zipf_trace(
            24, 40.0, 9_000.0, nodes, max_queries=2_400, seed=seed + 10
        )
        horizon = max(e.time_ms for e in trace)
        event = _sharded(zipf, trace, 1, mechanism, seed)
        planes = _sharded(zipf, trace, 2, mechanism, seed)
        offered = len(trace)
        assert event.completed + event.dropped + event.in_flight == offered
        assert planes.completed + planes.dropped == offered
        assert planes.in_flight == 0

        ratio = sum(planes.executed_per_period(PERIOD_MS, horizon)) / sum(
            event.executed_per_period(PERIOD_MS, horizon)
        )
        assert THROUGHPUT_BAND[0] <= ratio <= THROUGHPUT_BAND[1], (seed, ratio)
        drift = abs(planes.dropped - event.dropped) / offered
        assert drift <= DROP_FRACTION_TOLERANCE, (seed, drift)
        if mechanism == "greedy":
            # Greedy never refuses, so its overload backlog is in flight
            # on the event engine (~1,150 of 2,400 queries) and counted
            # as completed on the planes: response times do not compare.
            continue
        mean = planes.mean_response_ms() / event.mean_response_ms()
        assert MEAN_RESPONSE_BAND[0] <= mean <= MEAN_RESPONSE_BAND[1], (
            seed,
            mean,
        )
        p99 = planes.percentile_response_ms(
            0.99
        ) / event.percentile_response_ms(0.99)
        assert P99_RESPONSE_BAND[0] <= p99 <= P99_RESPONSE_BAND[1], (seed, p99)


# -- FTWE, oracle one: executed throughput against the capacity LP -----------

#: Constant Poisson overload at twice the 2:1 mix's capacity, 60 s long;
#: the window runs from 20 s (prices settled: the per-class means over
#: 10-60 s and 20-60 s agree within 1 %) to the horizon, before the drain.
FTWE_SHARES = (2.0 / 3.0, 1.0 / 3.0)
FTWE_LOAD = 2.0
FTWE_HORIZON_MS = 60_000.0
FTWE_WINDOW_START_MS = 20_000.0
#: A count of finishes in a window is off the work done in it by up to
#: one query per serving node at each edge: 30 of ~930 class-0 and 15 of
#: ~470 class-1 finishes here, ~3 %.  The other 2 % is the noise of the
#: window's mean: greedy, the control below, reads 0.99-1.03 of each
#: share over seeds 0-2.
FTWE_EPSILON = 0.05


def _executed_share_of_capacity(mechanism, seed):
    """Each class's mean finishes per period over the settled window, as
    a fraction of ``capacity x share_k x T`` (ablation A4's set-up)."""
    world = two_query_world(30, seed)
    capacity = world.capacity_qpms([2.0, 1.0])
    trace = build_trace(
        {
            k: PoissonArrivals(FTWE_LOAD * capacity * share)
            for k, share in enumerate(FTWE_SHARES)
        },
        horizon_ms=FTWE_HORIZON_MS,
        origin_nodes=world.placement.node_ids,
        seed=seed + 1,
    )
    federation = build_federation(
        world.specs,
        world.placement,
        world.classes,
        world.cost_model,
        QantAllocator() if mechanism == "qa-nt" else GreedyAllocator(),
        FederationConfig(seed=seed + 2),
    )
    metrics = federation.run(trace)
    first = int(FTWE_WINDOW_START_MS // PERIOD_MS)
    return [
        statistics.mean(
            metrics.executed_per_period(
                PERIOD_MS, FTWE_HORIZON_MS, class_index=k
            )[first:]
        )
        / (capacity * share * PERIOD_MS)
        for k, share in enumerate(FTWE_SHARES)
    ]


def test_greedy_executes_every_class_at_its_capacity_share():
    """The control: the window and the bound are met by a mechanism that
    serves classes in their arrival proportions."""
    for seed in SEEDS:
        for k, ratio in enumerate(_executed_share_of_capacity("greedy", seed)):
            assert ratio >= 1.0 - FTWE_EPSILON, (seed, k, ratio)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="known deviation 9 (EXPERIMENTS.md): the settled market serves "
    "Q1 at 0.75-0.78 of its share of the 2:1 capacity and Q2 at 1.9-2.0",
)
@pytest.mark.parametrize("seed", SEEDS)
def test_qant_executes_every_class_at_its_capacity_share(seed):
    """§3.2 FTWE as oracle one: once prices settle under constant
    overload, each class executes at least (1 - eps) x capacity x share_k
    per period, capacity being the LP's at the arrival mix."""
    for k, ratio in enumerate(_executed_share_of_capacity("qa-nt", seed)):
        assert ratio >= 1.0 - FTWE_EPSILON, (seed, k, ratio)
