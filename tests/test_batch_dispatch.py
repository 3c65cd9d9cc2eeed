"""Twin-fleet bit-identity tests for the market-tick batch dispatcher.

The federation coalesces same-tick arrivals into one
:meth:`~repro.allocation.base.Allocator.assign_batch` call, and QA-NT
answers full fan-outs through the vectorised
:class:`~repro.allocation.market_tick.MarketTickDispatcher`.  The whole
construction carries one contract: a run with ``batch_ticks=True`` must
be *bit-identical* to the same run with batching disabled — every
decision, every float, every RNG draw, every message count, and every
agent's post-run market state.  These tests drive twin federations over
quantised traces (so real multi-query batches form) and hash everything.
"""

import hashlib
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.allocation import GreedyAllocator, QantAllocator, RandomAllocator
from repro.allocation import market_tick
from repro.allocation.market_tick import (
    SCALAR_LANES_MAX,
    LaneBlock,
    LaneBook,
    MarketTickDispatcher,
    exchange_lanes_scalar,
    refusal_raise,
    scalar_lanes,
)
from repro.core import CapacitySupplySet, PriceVector, QantParameters
from repro.core.qant import QantPricingAgent
from repro.experiments.scaling import quantise_trace
from repro.query.model import Query
from repro.experiments.setups import (
    run_mechanism,
    sinusoid_trace_for_load,
    two_query_world,
    zipf_trace_for_world,
    zipf_world,
)
from repro.sim import FederationConfig, build_federation
from repro.sim.engine import Simulator
from repro.sim.faults import FaultSpec
from repro.sim.network import LatencyModel, Network

from listing_allocator import ListingAllocator

_MECHANISMS = (
    ("qa-nt", QantAllocator),
    ("greedy", GreedyAllocator),
    ("random", RandomAllocator),  # draws context RNG per assign
)

_FAULT_SPECS = {
    # No faults: the vector exchange handles every full fan-out.
    "none": None,
    # Node churn only: no message faults, so batching stays enabled and
    # outage windows turn full fan-outs into partial ones on the book.
    "churn": FaultSpec(crash_rate_per_min=4.0, fault_seed=7),
    # Message faults: batching is disabled outright (backoff draws would
    # interleave differently), so both runs assign one query at a time.
    "drops": FaultSpec(drop_probability=0.05, fault_seed=7),
}


def _outcome_digest(outcomes) -> str:
    """Same full-record pin as tests/test_golden_trace.py."""
    digest = hashlib.sha256()
    for o in outcomes:
        digest.update(
            (
                "%d,%d,%d,%r,%r,%d,%r,%r,%d;"
                % (
                    o.qid,
                    o.class_index,
                    o.origin_node,
                    o.arrival_ms,
                    o.assigned_ms,
                    o.node_id,
                    o.start_ms,
                    o.finish_ms,
                    o.resubmissions,
                )
            ).encode()
        )
    return digest.hexdigest()


def _quantised_run(name, factory, seed, tick_ms, batch_ticks, faults=None):
    world = two_query_world(num_nodes=12, seed=seed)
    trace = quantise_trace(
        sinusoid_trace_for_load(
            world,
            load_fraction=1.5,
            horizon_ms=1_500.0,
            frequency_hz=0.05,
            seed=seed + 10,
        ),
        tick_ms,
    )
    return run_mechanism(
        world,
        trace,
        name,
        factory,
        FederationConfig(seed=seed + 2, batch_ticks=batch_ticks, faults=faults),
    )


@settings(max_examples=12, deadline=None)
@given(
    st.integers(min_value=0, max_value=3),
    st.sampled_from([5.0, 25.0, 100.0]),
    st.integers(min_value=0, max_value=len(_MECHANISMS) - 1),
    st.sampled_from(sorted(_FAULT_SPECS)),
)
# Greedy fuses whole ticks; twelve random draws can miss it, and its
# outage path (a filtered candidate tuple) only shows under churn.
@example(0, 25.0, 1, "none")
@example(0, 25.0, 1, "churn")
def test_batched_runs_match_scalar_bit_for_bit(
    seed, tick_ms, mech_index, fault_key
):
    name, factory = _MECHANISMS[mech_index]
    faults = _FAULT_SPECS[fault_key]
    batched = _quantised_run(name, factory, seed, tick_ms, True, faults)
    scalar = _quantised_run(name, factory, seed, tick_ms, False, faults)
    assert _outcome_digest(batched.metrics.outcomes) == _outcome_digest(
        scalar.metrics.outcomes
    )
    assert batched.messages == scalar.messages
    assert batched.metrics.completed == scalar.metrics.completed
    # The protocol ledger to the last bit: legs drawn for the wrong rows
    # show first in the left-to-right delay sum.
    assert repr(sorted(batched.metrics.negotiation_summary().items())) == repr(
        sorted(scalar.metrics.negotiation_summary().items())
    )
    # The scalar twin never records batch activity; the batched twin
    # only does where batching is actually legal.
    assert scalar.metrics.counters["batch_ticks"] == 0
    if faults is not None and faults.message_faults:
        assert batched.metrics.counters["batch_ticks"] == 0


def _agent_state(allocator):
    """Every adopter's market state, by node id (see
    ``QantAllocator.market_state``)."""
    return dict(allocator.market_state())


@st.composite
def _market_cases(draw):
    """Two classes over shared agents mid-period, a burst of interleaved
    exchanges long enough for lanes to run into the cap, and one re-arm;
    class widths and live sets fall on both sides of the crossover.  Each
    exchange reaches every bidder (``None``), none, or a drawn subset, and
    hears back from every bidder (``None``) or a drawn subset.  Supply
    may be unbounded (``inf``), a non-adopter's lane."""
    agents = draw(st.integers(2, 2 * SCALAR_LANES_MAX + 4))
    # 1.5 sits below the threshold: lanes reach it and still pass.
    cap = draw(st.sampled_from([4.0, 4.0, 1e9, 1.5]))
    threshold = draw(st.sampled_from([None, 2.0]))
    # 2.0 is the threshold itself, 1.9 one raise below it, 4.0 a cap.
    price = st.one_of(
        st.sampled_from([1.0, 1.9, 2.0, 4.0]), st.floats(0.25, 5.0)
    ).map(lambda v: min(v, cap))
    supply = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0, math.inf])

    def column(values):
        return draw(st.lists(values, min_size=agents, max_size=agents))

    def pairs(values):
        return column(st.tuples(values, values))

    # Most agents bid in both classes; each class keeps a bidder.
    bids = column(st.sampled_from([(0,), (1,), (0, 1), (0, 1)]))
    bids[0], bids[-1] = (0, 1), (0, 1)
    reach = st.one_of(
        st.none(),
        st.sampled_from([(True,) * agents, (False,) * agents]),
        st.lists(st.booleans(), min_size=agents, max_size=agents),
    )
    heard = st.one_of(
        st.none(), st.lists(st.booleans(), min_size=agents, max_size=agents)
    )
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from([0, 0, 1]),
                st.sampled_from([0.0, 100.0, 650.0]),
                reach,
                heard,
            ),
            min_size=40,
            max_size=56,
        )
    )
    return {
        "cap": cap,
        "threshold": threshold,
        "bids": bids,
        "R": pairs(supply),
        "rearmed_R": pairs(supply),
        "rearm_at": draw(st.integers(8, 32)),
        "V": pairs(price),
        "latched": column(st.booleans() if threshold else st.just(False)),
        "costs": pairs(st.sampled_from([150.0, 400.0, 400.0, 900.0])),
        "busy": column(st.sampled_from([0.0, 120.0, 120.0, 700.0])),
        "steps": steps,
        # The live-set width up to which the book prices lane by lane.
        "crossover": draw(st.sampled_from([SCALAR_LANES_MAX, 2])),
    }


#: Three bidders out of supply at a cap below the threshold, so each
#: still offers after its refusal: the first exchange leaves lane 0 out,
#: and the second must find it unsettled and let it win.
_UNREACHED_AT_CAP = {
    "cap": 1.5,
    "threshold": 2.0,
    "bids": [(0, 1)] * 3,
    "R": [(0.0, 0.0)] * 3,
    "rearmed_R": [(0.0, 0.0)] * 3,
    "rearm_at": 8,
    "V": [(1.5, 1.0)] * 3,
    "latched": [False] * 3,
    "costs": [(150.0, 400.0)] * 3,
    "busy": [0.0, 120.0, 700.0],
    "steps": [(0, 0.0, (False, True, True), None), (0, 0.0, None, None)],
    "crossover": SCALAR_LANES_MAX,
}


@given(_market_cases())
@example(_UNREACHED_AT_CAP)
@example({**_UNREACHED_AT_CAP, "crossover": 0})
@settings(max_examples=200, deadline=None)
def test_lane_book_matches_the_paper_listing(case):
    """Both array-side spellings of the exchange — the lane book, pricing
    its live lanes by array steps or lane by lane, and the narrow-class
    scalar twin, at every width — equal a scalar loop over fresh pricing
    agents calling ``quote`` / ``accept`` (the paper listing): winner,
    prices, supply, max-price and latch bits, exchange after exchange, through lanes settling at the cap, winners selling out, a
    second class latching shared agents, and a re-arm.  Exchanges reach a
    drawn subset of the bidders, as in an outage window; the listing then
    quotes that subset only.  Under message faults only the bidders that
    replied may win: the kernels get busy clocks of ``inf`` for the
    others (the dispatcher's ``free_at`` override), and a reached lane
    offered iff it had a unit or its agent's latch is still open (what
    ``exchange_replied`` reports).  A lane with unbounded supply always
    offers and stays unbounded when it pays.  For the
    book also: ``offers`` is every reached lane's ``quote`` answer, and
    ``live`` is its from-scratch definition over the reached lanes — the
    refusing lanes that are not settled, plus the winner that just sold
    out (it has not been priced yet) — while an unreached lane keeps its
    membership.  Both engines' lane blocks price through these two only,
    so both inherit bit-identity with the listing from this one property.

    Hand mutations of ``LaneBook`` this kills (each on both pricing
    paths): settling a lane on ``V == cap`` without asking for the latch
    (``live``, under the cap below the threshold); skipping the ``maxp``
    update on the raise that reaches the cap (``maxp``, then latches and
    winners); adding a sold-out winner to ``live`` before instead of
    after the exchange it won (its price moves one exchange early);
    settling an unreached lane at the cap (``_UNREACHED_AT_CAP``).  Of
    the twin: pricing an unreached lane (prices).
    """
    for kernel in ("book", "twin"):
        _check_kernel_against_listing(kernel, case)


def _check_kernel_against_listing(kernel, case):
    cap, threshold = case["cap"], case["threshold"]
    params = QantParameters(price_cap=cap)
    terms = 1.0 + params.adjustment, params.price_floor, cap, threshold
    count = len(case["bids"])
    agents = []
    for i in range(count):
        agent = QantPricingAgent(
            CapacitySupplySet(list(case["costs"][i]), 500.0),
            params,
            PriceVector(list(case["V"][i])),
        )
        agent.begin_period()
        agent._remaining[:] = case["R"][i]
        if case["latched"][i]:
            agent._enforce_locked_at = threshold
        agents.append(agent)
    # Agents sit on the odd rows of wider arrays, as in an engine.
    maxp = np.zeros(2 * count + 1)
    maxp[1::2] = [max(v) for v in case["V"]]
    locked = np.zeros(2 * count + 1, dtype=bool)
    locked[1::2] = case["latched"]
    free_at = np.zeros(2 * count + 1)
    free_at[1::2] = case["busy"]
    agent_views = tuple(map(memoryview, (maxp, locked)))
    members, R, V, exchange, books = {}, {}, {}, {}, {}
    for k in (0, 1):
        members[k] = [i for i in range(count) if k in case["bids"][i]]
        rows = np.array(members[k]) * 2 + 1
        R[k] = np.array([case["R"][i][k] for i in members[k]])
        V[k] = np.array([case["V"][i][k] for i in members[k]])
        costs = np.array([case["costs"][i][k] for i in members[k]])
        if kernel == "twin":
            exchange[k] = lambda now, reached, clock, views=scalar_lanes(
                R[k], V[k], rows, costs
            ): exchange_lanes_scalar(
                *views, *agent_views, memoryview(clock), reached, now,
                *terms,
            )
            continue
        book = LaneBook(rows, costs, maxp, locked, *terms)
        book._scalar_max = case["crossover"]
        book.arm(R[k], V[k])
        books[k] = book
    for step, (k, now, reach, heard) in enumerate(case["steps"]):
        if step == case["rearm_at"]:
            # A boundary, as far as the lanes see one: new supply, latches
            # cleared, prices (and so maxima) kept.
            for i, agent in enumerate(agents):
                agent._remaining[:] = case["rearmed_R"][i]
                agent._enforce_locked_at = None
            locked[:] = False
            for j in (0, 1):
                R[j][:] = [case["rearmed_R"][i][j] for i in members[j]]
                if books:
                    books[j].arm(R[j], V[j])
        reached = (
            [True] * len(members[k])
            if reach is None
            else [reach[i] for i in members[k]]
        )
        bidders = [agents[i] for i in members[k]]
        quotes = [
            hit and a.quote(k, threshold) for a, hit in zip(bidders, reached)
        ]
        replied = [True] * count if heard is None else heard
        clock = free_at.copy()
        clock[1::2][[not hit for hit in replied]] = math.inf
        expected, best = -1, math.inf
        for lane, i in enumerate(members[k]):
            estimate = max(case["busy"][i], now) + case["costs"][i][k]
            if quotes[lane] and replied[i] and estimate < best:
                expected, best = lane, estimate
        accepted = expected >= 0 and bidders[expected].supply_left(k) >= 1
        if accepted:
            bidders[expected].accept(k)
        had = R[k] >= 1.0
        if kernel == "twin":
            winner, paid, finish = exchange[k](now, reached, clock)
        else:
            book = books[k]
            before = set(book.live.tolist())
            winner, paid, finish = book.exchange(
                book.estimates(clock, now),
                None if reach is None else np.array(reached),
            )
        assert winner == expected
        if winner >= 0:
            assert finish == best
            assert paid == accepted
        assert V[k].tolist() == [a.prices[k] for a in bidders]
        assert R[k].tolist() == [a.supply_left(k) for a in bidders]
        assert maxp[1::2].tolist() == [a.max_price for a in agents]
        assert locked[1::2].tolist() == [
            a._enforce_locked_at is not None for a in agents
        ]
        open_latch = ~locked[np.array(members[k]) * 2 + 1]
        offered = had | open_latch if threshold is not None else had
        assert [
            offer for offer, hit in zip(offered.tolist(), reached) if hit
        ] == [quote for quote, hit in zip(quotes, reached) if hit]
        if kernel == "twin":
            continue
        assert [
            offer for offer, hit in zip(book.offers.tolist(), reached) if hit
        ] == [quote for quote, hit in zip(quotes, reached) if hit]
        live = {
            lane
            for lane, i in enumerate(members[k])
            if (
                reached[lane]
                and R[k][lane] < 1.0
                and not (
                    V[k][lane] == cap
                    and (threshold is None or locked[2 * i + 1])
                )
            )
            or (not reached[lane] and lane in before)
        }
        if accepted and R[k][winner] < 1.0:
            live.add(winner)
        assert sorted(book.live.tolist()) == sorted(live)
    assert not maxp[::2].any() and not locked[::2].any()


@given(
    st.lists(
        st.one_of(st.sampled_from([1.0, 4.0]), st.floats(0.001, 5.0)),
        min_size=1,
        max_size=SCALAR_LANES_MAX + 2,
    ),
    st.integers(0, 40),
    st.sampled_from([4.0, 1e9]),
    st.sampled_from([0.01, 0.01, 6.0]),
)
@settings(max_examples=150, deadline=None)
def test_closed_raises_scalar_matches_sequential_refusal_raises(
    prices, count, cap, floor
):
    """``LaneBlock.closed_raises`` on a narrow class (the scalar loop) and
    on a wide one (:func:`refusal_raise` steps) equals ``count``
    exchanges' worth of :func:`refusal_raise`, one multiplication at a
    time: same price bits, same number of steps, and it stops — and says
    so — after the first step that leaves every lane at the cap.  A floor
    above the small cap is the one input that shows the clamp order
    (floor first: the cap wins)."""
    factor = 1.1
    expected = np.minimum(prices, cap)
    steps, pinned = 0, False
    while steps < count and not pinned:
        expected = refusal_raise(expected, factor, floor, cap)[0]
        steps += 1
        pinned = bool((expected == cap).all())
    lanes = len(prices)
    for crossover in (lanes, 0):  # narrow, then wide
        V = np.minimum(prices, cap)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(market_tick, "SCALAR_LANES_MAX", crossover)
            block = LaneBlock(
                V, np.zeros(lanes), np.arange(lanes),
                np.zeros(lanes, dtype=np.intp), np.full(lanes, 100.0),
                np.zeros(lanes), np.zeros(lanes), factor, floor, cap, 2.0,
            )
        assert bool(block.books) == (crossover == 0)
        assert block.closed_raises(0, count) == (steps, pinned)
        assert V.tolist() == expected.tolist()


def test_exchange_kernels_share_the_clamp_order():
    """``QantParameters`` rejects a floor above the cap, so the listing
    cannot show which clamp runs first; the book (on both pricing paths)
    and the scalar twin must still agree with :func:`refusal_raise`
    there: floor, then cap."""
    for kernel in ("many", "few", "twin"):
        R, V = np.zeros(2), np.array([1.0, 3.0])
        state = (
            R, V, np.arange(2), np.array([150.0, 400.0]), np.ones(2) * 3.0,
            np.zeros(2, dtype=bool), np.zeros(2),
        )
        rows, costs, maxp, locked, free_at = state[2:]
        if kernel == "twin":
            answer = exchange_lanes_scalar(
                *scalar_lanes(*state[:4]), *map(memoryview, state[4:]),
                [True, True], 0.0, 1.1, 5.0, 4.0, None,
            )
        else:
            book = LaneBook(rows, costs, maxp, locked, 1.1, 5.0, 4.0, None)
            book._scalar_max = 0 if kernel == "many" else 2
            book.arm(R, V)
            answer = book.exchange(book.estimates(free_at, 0.0))
            assert not len(book.live)
        assert answer[0] == -1
        assert V.tolist() == maxp.tolist() == [4.0, 4.0]


def test_qant_agent_state_matches_scalar_after_run():
    # Beyond the outcome digest: every agent's post-run market state
    # (prices, supply, enforce latch) must be exactly what the
    # never-batched run leaves behind.
    world = two_query_world(num_nodes=16, seed=0)
    trace = quantise_trace(
        sinusoid_trace_for_load(
            world,
            load_fraction=1.5,
            horizon_ms=1_500.0,
            frequency_hz=0.05,
            seed=3,
        ),
        50.0,
    )
    states = {}
    metrics = {}
    for batch in (True, False):
        allocator = QantAllocator()
        federation = build_federation(
            world.specs,
            world.placement,
            world.classes,
            world.cost_model,
            allocator,
            FederationConfig(seed=2, batch_ticks=batch),
        )
        metrics[batch] = federation.run(trace)
        states[batch] = _agent_state(allocator)
    assert states[True] == states[False]
    assert _outcome_digest(metrics[True].outcomes) == _outcome_digest(
        metrics[False].outcomes
    )
    # The batched twin really batched — and really vectorised.
    counters = metrics[True].counters
    assert counters["batch_ticks"] > 0
    assert counters["batched_queries"] >= 2 * counters["batch_ticks"]
    assert counters["max_batch"] >= 2
    assert counters["vector_exchanges"] > 0


def test_zero_base_latency_disables_batching():
    # With base_ms == 0 a negotiation can complete synchronously, so an
    # assignment's completion could land mid-batch; the federation must
    # fall back to per-query dispatch (and stay bit-identical).
    world = two_query_world(num_nodes=10, seed=1)
    trace = quantise_trace(
        sinusoid_trace_for_load(
            world,
            load_fraction=1.0,
            horizon_ms=1_000.0,
            frequency_hz=0.05,
            seed=5,
        ),
        25.0,
    )
    latency = LatencyModel(base_ms=0.0, jitter_ms=0.0)
    runs = {}
    for batch in (True, False):
        runs[batch] = run_mechanism(
            world,
            trace,
            "qa-nt",
            QantAllocator,
            FederationConfig(seed=2, batch_ticks=batch, latency=latency),
        )
    assert _outcome_digest(runs[True].metrics.outcomes) == _outcome_digest(
        runs[False].metrics.outcomes
    )
    assert runs[True].metrics.counters["batch_ticks"] == 0


def _built(world, allocator, config, crossover=None):
    """``build_federation`` over ``world``; with ``crossover``, the lane
    block prices classes of up to that many lanes with the scalar twin
    (0: lane books only) instead of :data:`SCALAR_LANES_MAX`."""
    with pytest.MonkeyPatch.context() as patch:
        if crossover is not None:
            patch.setattr(market_tick, "SCALAR_LANES_MAX", crossover)
        return build_federation(
            world.specs,
            world.placement,
            world.classes,
            world.cost_model,
            allocator,
            config,
        )


def _churn_run(
    prepare=None, faults=_FAULT_SPECS["churn"], crossover=None,
    factory=QantAllocator,
):
    """One qa-nt churn run; ``prepare(federation, allocator)`` may script it."""
    world = two_query_world(num_nodes=14, seed=0)
    trace = quantise_trace(
        sinusoid_trace_for_load(
            world,
            load_fraction=1.5,
            horizon_ms=1_500.0,
            frequency_hz=0.05,
            seed=9,
        ),
        25.0,
    )
    allocator = factory()
    federation = _built(
        world,
        allocator,
        FederationConfig(seed=2, batch_ticks=True, faults=faults),
        crossover,
    )
    if prepare is not None:
        prepare(federation, allocator)
    metrics = federation.run(trace)
    return allocator, metrics


def test_partial_fanout_mid_run_falls_back_and_recovers():
    # Crash-only churn shrinks candidate sets inside outage windows:
    # those queries' exchanges run on the lane block over the live
    # bidders (never the listing), full fan-outs go on around them, and
    # the whole interleaving must be bit-identical to the paper listing
    # run whole (tests/listing_allocator.py): with lane books (the
    # crossover at 0) and, as shipped, with the scalar twin, which prices
    # both of this world's classes (14 and 7 lanes).
    calls = Counter()

    def count(federation, allocator):
        exchange = allocator._dispatcher.exchange

        def counted_exchange(class_index, now, reached=None):
            calls["partial" if reached is not None else "full"] += 1
            return exchange(class_index, now, reached)

        allocator._dispatcher.exchange = counted_exchange

    quote = QantPricingAgent.quote

    def counted_quote(*args):
        calls["quote"] += 1
        return quote(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(QantPricingAgent, "quote", counted_quote)
        vectorised, metrics = _churn_run(prepare=count, crossover=0)
    stats = vectorised.batch_dispatch_stats
    assert calls["partial"] > 0, "no outage window hit a fan-out"
    assert calls["full"] > 0, "no full fan-out around the outages"
    assert calls["quote"] == 0
    assert stats.vector_exchanges == calls["partial"] + calls["full"]
    assert stats.estimate_reuses > 0, "no batch reused its estimates"

    scalar, scalar_metrics = _churn_run(factory=ListingAllocator)
    twin, twin_metrics = _churn_run()
    assert twin.batch_dispatch_stats.vector_exchanges == stats.vector_exchanges
    assert twin.batch_dispatch_stats.estimate_reuses == 0
    for run, allocator in ((metrics, vectorised), (twin_metrics, twin)):
        assert _outcome_digest(run.outcomes) == _outcome_digest(
            scalar_metrics.outcomes
        )
        assert _agent_state(allocator) == _agent_state(scalar)


def _armed_allocator():
    """A bound QA-NT allocator whose single assigns take the vector
    exchange on lane books, as inside a federation run."""
    world = two_query_world(num_nodes=12, seed=0)
    allocator = QantAllocator()
    _built(world, allocator, FederationConfig(seed=2), crossover=0)
    return allocator


def test_batch_estimates_do_not_outlive_the_batch():
    # A batch reuses each class's completion estimates; a commit right
    # after it, behind the dispatcher's back, must show in the very next
    # single assign at the same timestamp.  The twin cannot reuse
    # anything by construction: its batches hold one query each.
    queries = [
        Query(qid=qid, class_index=0, origin_node=0, arrival_ms=0.0)
        for qid in range(7)
    ]
    reusing, recomputing = _armed_allocator(), _armed_allocator()
    batch = reusing.assign_batch(queries[:6]).node_ids
    assert batch == [
        recomputing.assign_batch([query]).node_ids[0] for query in queries[:6]
    ]
    winner = batch[-1]
    stats = reusing.batch_dispatch_stats
    assert (stats.vector_exchanges, stats.estimate_reuses) == (6, 5)
    assert recomputing.batch_dispatch_stats.estimate_reuses == 0
    # The winner still offers (its prices sit below the activation
    # threshold) and would win again on the batch's estimates; with the
    # commit in its queue somebody else is earlier.
    singles = []
    for allocator in (reusing, recomputing):
        prices = {nid: p for nid, p, __ in allocator.market_rows()}
        assert max(prices[winner]) < allocator._activation_threshold
        allocator.context.nodes[winner].enqueue(queries[5])
        singles.append(allocator.assign(queries[6]).node_id)
    assert singles[0] == singles[1] != winner
    assert stats.estimate_reuses == 5


def _ledger_run(crossover):
    """The pinned ledger's run; returns the allocator, the metrics and
    how many refusing lanes the vector exchanges met."""
    world, trace = _overload_setup("two-class", 0, 25.0)
    allocator = QantAllocator(parameters=QantParameters(price_cap=64.0))
    federation = _built(
        world, allocator, FederationConfig(seed=2, batch_ticks=True), crossover
    )
    dispatcher = allocator._dispatcher
    exchange = dispatcher.exchange
    refusing_met = [0]

    def counted(class_index, now, reached=None):
        assert reached is None
        supply = dispatcher.block.supply[class_index]
        refusing_met[0] += int((supply < 1.0).sum())
        return exchange(class_index, now)

    dispatcher.exchange = counted
    return allocator, federation.run(trace), refusing_met[0]


def test_dispatch_ledger_counts_are_pinned():
    # Host-independent evidence of what the lane book skips, on a small
    # overloaded run with a cap low enough to reach.  Its classes (12 and
    # 6 lanes) are narrow, so the crossover is set to 0 to price them
    # with lane books: of the refusing lanes the vector exchanges meet,
    # `lane_steps` are still live and get priced; the rest had settled
    # for the period.  Neither count reaches `batch_summary()` (its key
    # set is pinned below).
    allocator, metrics, refusing_met = _ledger_run(crossover=0)
    counts = allocator.batch_dispatch_stats.as_dict()
    assert counts["vector_exchanges"] == metrics.counters["vector_exchanges"] == 217
    assert refusing_met == 1684
    assert counts["lane_steps"] == 945
    assert counts["estimate_reuses"] == 141
    # The other fast path that stays, pinned to traffic on the same run:
    # the saturated no-ops `assign_batch` settles without an exchange.
    assert metrics.counters["exchanges"] - metrics.counters["vector_exchanges"] == 447
    # As shipped the scalar twin prices both classes: it keeps no live
    # set and computes its estimates inline, so it adds to neither
    # count, and the run is the same run.
    allocator, twin_metrics, refusing_met = _ledger_run(crossover=None)
    assert allocator.batch_dispatch_stats.as_dict() == {
        **counts, "lane_steps": 0, "estimate_reuses": 0,
    }
    assert refusing_met == 1684
    assert _outcome_digest(twin_metrics.outcomes) == _outcome_digest(
        metrics.outcomes
    )


def test_dispatcher_refuses_raise_terms_that_unsettle_the_cap():
    # A settled lane is skipped because cap * factor clamps back to the
    # cap; `QantParameters` cannot produce these, raw floats can.
    def dispatcher(factor, cap):
        return MarketTickDispatcher(
            None, {}, None, (), 2.0, factor, 0.01, cap
        )

    for factor in (1.0, 0.9, math.nan):
        with pytest.raises(ValueError, match="raise_factor"):
            dispatcher(factor, 4.0)
    for cap in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="price_cap"):
            dispatcher(1.1, cap)


def test_batch_summary_counters_surface_in_metrics():
    run = _quantised_run("qa-nt", QantAllocator, 0, 25.0, True)
    summary = run.metrics.batch_summary()
    assert set(summary) == {
        "batch_ticks",
        "batched_queries",
        "max_batch",
        "vector_exchanges",
        "scalar_fallbacks",
        "batch_syncs",
    }
    assert summary["batch_ticks"] > 0
    assert summary["batched_queries"] >= 2 * summary["batch_ticks"]
    assert summary["max_batch"] >= 2
    assert summary["vector_exchanges"] > 0
    # A non-batched run never forms batches, but single assigns inside a
    # federation run still go through the (bit-identical) vector
    # exchange, so the dispatcher counters may be nonzero.
    scalar = _quantised_run("qa-nt", QantAllocator, 0, 25.0, False).metrics
    assert scalar.counters["batch_ticks"] == 0
    assert scalar.counters["batched_queries"] == 0
    assert scalar.counters["max_batch"] == 0
    assert scalar.counters["vector_exchanges"] > 0


# ------------------------------------------------ saturated retry bursts


#: Node 1 fails between two period boundaries (500 ms apart) and comes
#: back between two later ones.
_MID_PERIOD_OUTAGE = FaultSpec(scripted_outages={1: ((750.0, 2_250.0),)})


def _overload_setup(world_kind, seed, tick_ms):
    """A small world driven far enough past capacity to saturate classes."""
    if world_kind == "two-class":
        world = two_query_world(num_nodes=12, seed=seed)
        trace = sinusoid_trace_for_load(
            world,
            load_fraction=2.5,
            horizon_ms=3_000.0,
            frequency_hz=0.05,
            seed=seed + 10,
        )
    else:
        world = zipf_world(
            num_nodes=12, num_relations=40, num_classes=6, max_joins=3, seed=seed
        )
        trace = zipf_trace_for_world(
            world, mean_interarrival_ms=8.0, horizon_ms=3_000.0, seed=seed + 10
        )
    if tick_ms is not None:
        trace = quantise_trace(trace, tick_ms)
    return world, trace


def _overload_run(world, trace, batch_ticks, faults=None):
    """One qa-nt run; returns everything the batch contract pins, the
    run's metrics, and how often `_exchange` ran / how many of those
    exchanges reached a partial fan-out.

    The market state stays in the period engine's arrays; the pinned
    agents are read out of them.
    """
    allocator = QantAllocator()
    federation = build_federation(
        world.specs,
        world.placement,
        world.classes,
        world.cost_model,
        allocator,
        FederationConfig(seed=2, batch_ticks=batch_ticks, faults=faults),
    )
    calls = Counter()
    exchange = allocator._exchange
    candidates_by_class = allocator.context.candidates_by_class

    def counted(class_index, candidates):
        calls["exchange"] += 1
        if len(candidates) < len(candidates_by_class[class_index]):
            calls["partial"] += 1
        return exchange(class_index, candidates)

    allocator._exchange = counted
    metrics = federation.run(trace)
    network = federation.network
    pinned = {
        "outcomes": _outcome_digest(metrics.outcomes),
        "dropped": metrics.dropped,
        # repr() pins the floats to the last bit (and -0.0 vs 0.0).
        "negotiation": repr(sorted(metrics.negotiation_summary().items())),
        "agents": _agent_state(allocator),
        "messages_sent": network.messages_sent,
        "next_draws": (network.round_trip_ms(3), network.round_trip_ms(9)),
    }
    return pinned, metrics, calls


def _assert_overload_twins_match(world, trace, faults=None):
    """Batched == unbatched on outcomes, negotiation bits, final agents,
    messages and RNG position; returns the batched run."""
    batched = _overload_run(world, trace, True, faults)
    assert batched[0] == _overload_run(world, trace, False, faults)[0]
    return batched


@settings(max_examples=10, deadline=None)
@given(
    st.sampled_from(["two-class", "zipf"]),
    st.integers(min_value=0, max_value=3),
    st.sampled_from([None, 5.0, 50.0]),
    st.booleans(),
)
def test_saturated_bursts_match_scalar_bit_for_bit(
    world_kind, seed, tick_ms, outage
):
    # Overload twins: period retry bursts in which classes saturate
    # mid-batch and interleave with classes that still have supply.  With
    # ``outage`` a scripted window takes node 1 down mid-period, so its
    # classes run partial fan-outs, which must not be settled in bulk.
    world, trace = _overload_setup(world_kind, seed, tick_ms)
    faults = _MID_PERIOD_OUTAGE if outage else None
    _assert_overload_twins_match(world, trace, faults)


def test_saturated_burst_settles_in_bulk_and_outage_bypasses_it():
    # Pin that the sweep above exercises what it claims to: the batched
    # twin settles saturated attempts without reaching `_exchange`, the
    # unbatched twin calls it once per attempt, and under the outage the
    # partial fan-outs reach it.
    world, trace = _overload_setup("two-class", 0, None)
    pinned = {}
    for batch in (True, False):
        pinned[batch], metrics, calls = _overload_run(world, trace, batch)
        if batch:
            assert metrics.counters["max_batch"] > 50
            assert metrics.counters["exchanges"] - calls["exchange"] > 100
        else:
            assert calls["exchange"] == metrics.counters["exchanges"]
    assert pinned[True] == pinned[False]
    # In this Zipf twin a class saturates on the 500 ms retry burst and
    # node 1 fails 250 ms later, so same-period arrival batches meet a
    # class that is saturated *and* partial: those attempts reach
    # `_exchange` and run on the book over the live bidders.
    world, trace = _overload_setup("zipf", 2, 50.0)
    __, metrics, calls = _assert_overload_twins_match(
        world, trace, _MID_PERIOD_OUTAGE
    )
    assert calls["partial"] > 0
    assert calls["exchange"] < metrics.counters["exchanges"]


def test_unbound_allocator_batch_reports_not_bound():
    with pytest.raises(RuntimeError, match="not bound"):
        QantAllocator().assign_batch([])


# --------------------------------------------------- bulk latency draws


def _stream_state(network):
    __, key, pos, __, __ = network._np_sample.__self__.get_state()
    return key.tolist(), pos


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=5),
    st.lists(st.integers(min_value=-1, max_value=20), max_size=40),
)
def test_round_trip_batch_matches_sequential_draws(seed, sizes):
    # Mixed widths: <= 0 (no draw), < 8 (round_trip_ms's scalar-draw
    # path) and >= 8 (its bulk path) must all come out of one batch draw
    # exactly as the sequential calls produce them.
    batch_net = Network(Simulator(), seed=seed)
    sequential_net = Network(Simulator(), seed=seed)
    assert batch_net.round_trip_ms_batch(sizes) == [
        sequential_net.round_trip_ms(n) for n in sizes
    ]
    assert batch_net.messages_sent == sequential_net.messages_sent
    assert _stream_state(batch_net) == _stream_state(sequential_net)
    assert batch_net.round_trip_ms(9) == sequential_net.round_trip_ms(9)


# ------------------------------------------------ greedy's fused tick


#: Outage scenarios at t=0 on `two_query_world(12)`, whose class 0 runs
#: on every node and class 1 on the even ones: none (both classes take
#: the registry tuple's argmin, over shared nodes), node 5 down (class
#: 0's fastest: class 0 is filtered to the scalar-min path, class 1 is
#: untouched), and every even node down (class 1 has no live candidate;
#: class 0 filtered).
_GREEDY_OUTAGES = {
    "shared": (),
    "one-filtered": (5,),
    "class-dark": (0, 2, 4, 6, 8, 10),
}


def _greedy_twin(randomisation, outages):
    """A bound greedy allocator at t=0 with a backlog on a few nodes and
    ``outages`` down; returns it and its network."""
    world = two_query_world(num_nodes=12, seed=0)
    allocator = GreedyAllocator(randomisation=randomisation)
    federation = _built(world, allocator, FederationConfig(seed=2))
    nodes = federation.nodes
    for qid, nid in enumerate((0, 2, 3, 4, 7, 8)):
        nodes[nid].enqueue(
            Query(qid=100 + qid, class_index=0, origin_node=nid, arrival_ms=0.0)
        )
    for nid in outages:
        nodes[nid].schedule_outage(0.0, 100.0)
    return allocator, federation.network


@pytest.mark.parametrize("randomisation", [0.0, 0.5])
@pytest.mark.parametrize("outage", sorted(_GREEDY_OUTAGES))
def test_greedy_batch_equals_sequential_assigns(outage, randomisation):
    # One tick of interleaved classes: the fused batch (one draw, one
    # winner per class) against one `assign` per query on a twin.  With
    # randomisation each pick draws the context RNG, so the batch must
    # take the sequential default and draw exactly as the twin does.
    queries = [
        Query(qid=qid, class_index=k, origin_node=qid % 12, arrival_ms=0.0)
        for qid, k in enumerate((0, 1, 1, 0, 0, 1, 0, 1, 1))
    ]
    fused, fused_net = _greedy_twin(randomisation, _GREEDY_OUTAGES[outage])
    twin, twin_net = _greedy_twin(randomisation, _GREEDY_OUTAGES[outage])
    rng_before = twin.context.rng.getstate()
    batch = fused.assign_batch(queries)
    sequential = [twin.assign(query) for query in queries]
    assert list(batch.node_ids) == [d.node_id for d in sequential]
    assert list(batch.delays_ms) == [d.delay_ms for d in sequential]
    assert list(batch.messages) == [d.messages for d in sequential]
    assert fused_net.messages_sent == twin_net.messages_sent
    assert _stream_state(fused_net) == _stream_state(twin_net)
    assert fused.context.rng.getstate() == twin.context.rng.getstate()
    if randomisation:
        # The picks drew the RNG, and the equal states above say once
        # per row, as the twin did.
        assert twin.context.rng.getstate() != rng_before
        return
    assert twin.context.rng.getstate() == rng_before
    winners = {}
    for query, node_id in zip(queries, batch.node_ids):
        winners.setdefault(query.class_index, set()).add(node_id)
    assert all(len(nodes) == 1 for nodes in winners.values())
    if outage == "class-dark":
        dark = [i for i, q in enumerate(queries) if q.class_index == 1]
        assert {batch.node_ids[i] for i in dark} == {None}
        assert {batch.delays_ms[i] for i in dark} == {0.0}
        assert {batch.messages[i] for i in dark} == {0}
    else:
        assert None not in winners[1]
