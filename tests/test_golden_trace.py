"""Golden-trace regression tests for the hot-path optimisations.

The files under ``tests/golden/`` were captured from the *pre-optimisation*
code (PR 1 tree) via::

    json.dumps(_json_safe(run_sweep(REGISTRY.get(name), scale="small",
               seeds=(0,)).to_dict()), indent=2, sort_keys=True) + "\n"

The perf work (in-place price updates, trusted vector constructors,
network/node fast paths, and a solver cache since removed) must not change
a single simulated decision, so the serialized sweep results have to stay
*byte-identical*.  Any diff here means an optimisation reordered floating-
point arithmetic or consumed RNG draws differently — a correctness bug,
not a tolerance issue.
"""

import hashlib
import json
import pathlib

import pytest

from test_batch_dispatch import _MID_PERIOD_OUTAGE

from repro.allocation import GreedyAllocator, QantAllocator, RoundRobinAllocator
from repro.experiments.runner import _json_safe, run_sweep
from repro.experiments.scaling import quantise_trace
from repro.experiments.setups import (
    run_mechanism,
    sinusoid_trace_for_load,
    two_query_world,
)
from repro.experiments.spec import REGISTRY
from repro.query.model import Query
from repro.sim import FederationConfig, build_federation
from repro.sim.faults import FaultSpec, half_partition

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def _serialize(name: str) -> str:
    result = run_sweep(REGISTRY.get(name), scale="small", seeds=(0,))
    return (
        json.dumps(_json_safe(result.to_dict()), indent=2, sort_keys=True)
        + "\n"
    )


def _outcome_digest(outcomes) -> str:
    """SHA-256 over every field of every outcome, in completion order.

    ``%r`` of a float is its shortest round-trip repr, so two runs hash
    equal iff every recorded bit is equal — a far stronger pin than the
    summary means alone.
    """
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


def paper_short_payload() -> str:
    """The 100-node short-horizon golden payload (fig5a's 1.5x-load cell).

    Seed plumbing matches ``fig5a_cell("qa-nt"/"greedy", 1.5, 0, 0,
    num_nodes=100)`` exactly (world seed 0, trace seed 10, federation
    seed 2) with the horizon cut to 2 s so the trace stays test-sized.
    Every per-query record is pinned via :func:`_outcome_digest`.
    """
    world = two_query_world(num_nodes=100, seed=0)
    trace = sinusoid_trace_for_load(
        world,
        load_fraction=1.5,
        horizon_ms=2_000.0,
        frequency_hz=0.05,
        seed=10,
    )
    payload = {}
    for mechanism, factory in (
        ("qa-nt", QantAllocator),
        ("greedy", GreedyAllocator),
    ):
        run = run_mechanism(
            world, trace, mechanism, factory, FederationConfig(seed=2)
        )
        metrics = run.metrics
        payload[mechanism] = {
            "completed": metrics.completed,
            "dropped": metrics.dropped,
            "messages": run.messages,
            "mean_response_ms": metrics.mean_response_ms(),
            "mean_assign_ms": metrics.mean_assign_ms(),
            "mean_resubmissions": metrics.mean_resubmissions(),
            "p95_response_ms": metrics.percentile_response_ms(0.95),
            "last_finish_ms": metrics.last_finish_ms(),
            "executed_per_period": metrics.executed_per_period(
                500.0, 2_000.0
            ),
            "outcome_digest": _outcome_digest(metrics.outcomes),
        }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def chaos_payload() -> str:
    """A *faulted* 20-node golden payload pinning the fault layer itself.

    5% message drops, 5% latency spikes, an even/odd half-partition over
    [800, 1200) ms, and 2 crashes/node/min, all under ``fault_seed=7``.
    Pins every per-query record *and* the per-mechanism fault counters,
    so any change to fault RNG stream order, drop/timeout accounting, or
    the backoff/degradation paths shows up as a byte diff.
    """
    world = two_query_world(num_nodes=20, seed=0)
    trace = sinusoid_trace_for_load(
        world,
        load_fraction=1.5,
        horizon_ms=2_000.0,
        frequency_hz=0.05,
        seed=10,
    )
    spec = FaultSpec(
        drop_probability=0.05,
        spike_probability=0.05,
        partitions=(
            half_partition(world.placement.node_ids, 800.0, 1_200.0),
        ),
        crash_rate_per_min=2.0,
        fault_seed=7,
    )
    payload = {}
    for mechanism, factory in (
        ("qa-nt", QantAllocator),
        ("greedy", GreedyAllocator),
        ("round-robin", RoundRobinAllocator),
    ):
        run = run_mechanism(
            world,
            trace,
            mechanism,
            factory,
            FederationConfig(seed=2, faults=spec),
        )
        metrics = run.metrics
        payload[mechanism] = {
            "completed": metrics.completed,
            "dropped": metrics.dropped,
            "messages": run.messages,
            "mean_response_ms": metrics.mean_response_ms(),
            "mean_resubmissions": metrics.mean_resubmissions(),
            "fault_summary": metrics.fault_summary(),
            "outcome_digest": _outcome_digest(metrics.outcomes),
        }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


#: The batching counters the 1,000-node golden was recorded with.
#: `batch_summary()` only ever gains keys (market-state ownership
#: counters since PR 14, pinned in tests/test_market_state.py); the
#: golden file stays byte-identical by pinning these six by name.
_GOLDEN_BATCH_KEYS = frozenset(
    {
        "batch_ticks",
        "batched_queries",
        "max_batch",
        "vector_exchanges",
        "scalar_fallbacks",
        "batch_syncs",
    }
)


def scaling_1000node_payload() -> str:
    """The 1,000-node scaling-curve golden payload (batched dispatch).

    Same fixture as the ``scaling`` scenario's largest paper point (world seed 0, quantised
    trace seed 10, federation seed 2), horizon cut to 2 s.  Arrival
    timestamps sit on a 25 ms grid, so nearly every query reaches QA-NT
    through a multi-query market-tick batch — this pins the vectorised
    fan-out (bid matrices, argmin best-offer, bulk refusals) per query,
    per bit, at full federation scale.
    """
    world = two_query_world(num_nodes=1_000, seed=0)
    trace = quantise_trace(
        sinusoid_trace_for_load(
            world,
            load_fraction=1.5,
            horizon_ms=2_000.0,
            frequency_hz=0.05,
            seed=10,
        ),
        25.0,
    )
    payload = {}
    for mechanism, factory in (
        ("qa-nt", QantAllocator),
        ("greedy", GreedyAllocator),
    ):
        run = run_mechanism(
            world, trace, mechanism, factory, FederationConfig(seed=2)
        )
        metrics = run.metrics
        payload[mechanism] = {
            "completed": metrics.completed,
            "dropped": metrics.dropped,
            "messages": run.messages,
            "mean_response_ms": metrics.mean_response_ms(),
            "p99_response_ms": metrics.percentile_response_ms(0.99),
            "batch_summary": {
                key: value
                for key, value in metrics.batch_summary().items()
                if key in _GOLDEN_BATCH_KEYS
            },
            "outcome_digest": _outcome_digest(metrics.outcomes),
        }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def scalar_paths_payload() -> str:
    """Partial adoption, outage windows and direct API use, bit for bit.

    Non-adopters are lanes that always offer, an outage window turns full
    fan-outs into partial ones, and a directly driven allocator (no
    ``Federation.run``) prices on the same lanes.  Each run pins every
    outcome, the message count and every agent's final market state.
    """
    world = two_query_world(num_nodes=12, seed=5)
    trace = sinusoid_trace_for_load(
        world,
        load_fraction=2.5,
        horizon_ms=3_000.0,
        frequency_hz=0.05,
        seed=15,
    )

    def federation(allocator, **config):
        return build_federation(
            world.specs,
            world.placement,
            world.classes,
            world.cost_model,
            allocator,
            FederationConfig(seed=2, **config),
        )

    def agents(allocator):
        # The file's format: prices, max price, remaining supply and
        # enforce latch; repr() pins the floats to the last bit.
        return {
            str(node_id): repr((prices, max(prices), remaining, latch))
            for node_id, (
                prices, remaining, __, __, __, latch
            ) in sorted(allocator.market_state())
        }

    payload = {}
    for name, make, config in (
        ("partial_adoption", lambda: QantAllocator(adopters=range(6)), {}),
        (
            "outage_batched",
            QantAllocator,
            {"faults": _MID_PERIOD_OUTAGE, "batch_ticks": True},
        ),
        (
            "outage_unbatched",
            QantAllocator,
            {"faults": _MID_PERIOD_OUTAGE, "batch_ticks": False},
        ),
    ):
        allocator = make()
        fed = federation(allocator, **config)
        metrics = fed.run(trace)
        payload[name] = {
            "outcome_digest": _outcome_digest(metrics.outcomes),
            "dropped": metrics.dropped,
            "messages": fed.network.messages_sent,
            "agents": agents(allocator),
        }
    # Direct API: bind, then three periods of `assign` + enqueue by hand
    # with the clock at zero, so supply sells out and refusals raise
    # prices until the activation threshold latches; the last period is
    # left open so its latches are in the pin.
    allocator = QantAllocator()
    fed = federation(allocator)
    decisions = []
    for qid in range(180):
        query = Query(
            qid=qid, class_index=qid % 2, origin_node=qid % 12, arrival_ms=0.0
        )
        decision = allocator.assign(query)
        decisions.append(
            (decision.node_id, decision.delay_ms, decision.messages)
        )
        if decision.node_id is not None:
            fed.nodes[decision.node_id].enqueue(query)
        if qid in (59, 119):
            allocator.on_period_start()
    payload["direct_api"] = {
        "assigned": sum(node_id is not None for node_id, __, __ in decisions),
        "decision_digest": hashlib.sha256(repr(decisions).encode()).hexdigest(),
        "messages": fed.network.messages_sent,
        "agents": agents(allocator),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _golden(name: str) -> str:
    return (GOLDEN_DIR / name).read_text()


def test_fig4_small_seed0_matches_golden():
    """All six mechanisms on the fig4 sweep reproduce the stored trace."""
    assert _serialize("fig4") == _golden("fig4_small_seed0.json")


def test_fig5a_paper_short_matches_golden():
    """The 100-node short-horizon qa-nt/greedy pair (the PR 3 bidding-path
    optimisation target) reproduces the stored per-query digests."""
    assert paper_short_payload() == _golden("fig5a_paper_short_seed0.json")


def test_chaos_seed0_matches_golden():
    """The faulted 20-node qa-nt/greedy/round-robin triple reproduces the
    stored per-query digests and fault counters bit-for-bit."""
    assert chaos_payload() == _golden("chaos_seed0.json")


def test_scaling_1000node_matches_golden():
    """The 1,000-node batched qa-nt/greedy pair reproduces the stored
    per-query digests and batch counters bit-for-bit."""
    assert scaling_1000node_payload() == _golden(
        "scaling_1000node_seed0.json"
    )


@pytest.mark.slow
def test_ablation_rounding_small_seed0_matches_golden():
    """The supply-method ablation (exercises every solver + carry-over
    variant) reproduces the stored trace."""
    assert _serialize("ablation-rounding") == _golden(
        "ablation_rounding_small_seed0.json"
    )


def test_ablation_partial_small_seed0_matches_golden():
    """Partial adoption at 0 / 25 / 50 / 75 / 100 % of the fleet (ablation
    A3) reproduces the stored sweep; the fixture ``scalar_paths`` pins
    only the 6-of-12 case."""
    assert _serialize("ablation-partial") == _golden(
        "ablation_partial_small_seed0.json"
    )


def test_scalar_paths_match_golden():
    """Partial adoption, a mid-period outage (batched and not) and a
    hand-driven allocator reproduce the stored digests and final agent
    states bit-for-bit."""
    assert scalar_paths_payload() == _golden("scalar_paths_seed0.json")
