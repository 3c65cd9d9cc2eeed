"""Sharded federation: partitioning, determinism, goldens, transport.

Three properties carry the whole design (see DESIGN.md §7):

* ``shards=1`` is *byte-identical* to the single-process engine — the
  sharded front delegates outright, so every existing golden keeps
  pinning it;
* ``shards>1`` is *invariant* across shard counts, worker modes and
  frame sizes, and equal to the global tick market of
  ``tests/reference_market.py`` — every plane is that market restricted
  to its affinity components, takes its own boundaries and drains on
  its own, and per-node state (latency RNG streams, busy clocks) is
  keyed by node id, never by shard layout;
* the cross-shard conversation is real traffic — each shard's trace
  slice as a few ``slice`` frames of four columns over
  ``ShardTransport``: pickled arrays over pipes, packed columns in the
  frame's JSON over sockets, checked where they land.
"""

import dataclasses
import functools
import json
import logging
import math
import multiprocessing
import os
import pathlib
import pickle
import signal
import socket
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocation import GreedyAllocator, QantAllocator
from repro.catalog import Placement
from repro.experiments.scaling import quantise_trace, sharded_scaling_cell
from repro.experiments.setups import (
    run_mechanism,
    sinusoid_trace_for_load,
    two_query_world,
    zipf_world,
)
from repro.protocol import MAX_FRAME_BYTES, ProtocolError, encode_frame
from repro.sim import (
    FederationConfig,
    MetricsCollector,
    ShardedFederation,
    ShardFailure,
    ShardPlan,
    ShardTransport,
    build_federation,
    plan_shards,
    split_market_classes,
)
from repro.allocation import market_tick
from repro.sim.faults import derive_fault_seed
from repro.sim import metrics as metrics_module
from repro.sim.shards import engine as shards_engine
from repro.sim.shards import plane as shards_plane
from repro.sim.shards import wire as shards_wire
from repro.sim.shards.plane import _MarketPlane
from repro.sim.shards.wire import _CORE_KINDS
from repro.workload.trace import WorkloadEvent, zipf_trace

from reference_market import run_reference_market
from test_golden_trace import _outcome_digest
from test_protocol import _Cells, _wire_payload

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def _small_world():
    world = two_query_world(num_nodes=30, seed=0)
    trace = sinusoid_trace_for_load(
        world,
        load_fraction=1.5,
        horizon_ms=2_000.0,
        frequency_hz=0.05,
        seed=10,
    )
    return world, trace


_CONFIG = FederationConfig(seed=2)
#: The overloaded fixture's: its drain window closes on a deep backlog.
_OVERLOADED_CONFIG = FederationConfig(seed=2, drain_ms=2_500.0)


def _sharded(world, shards, mode="inline", interval=1, config=_CONFIG):
    """A sharded federation; ``interval`` is the ``reconcile_interval``
    keyword, still accepted and checked but moving nothing."""
    return ShardedFederation(
        world.specs,
        world.placement,
        world.classes,
        world.cost_model,
        config=config,
        shards=shards,
        mode=mode,
        reconcile_interval=interval,
    )


def _pair_payload(run) -> str:
    """Golden-file text of ``run(mechanism).invariant_payload()``."""
    payload = {
        mechanism: run(mechanism).invariant_payload()
        for mechanism in ("qa-nt", "greedy")
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# partitioner


def test_plan_shards_groups_overlapping_bidder_sets():
    """Classes whose bidder sets overlap land on one shard (affinity)."""
    candidates = {0: (0, 1, 2), 1: (2, 3), 2: (5, 6), 3: (7, 8, 9), 4: (9, 10)}
    plan = plan_shards(candidates, node_ids=range(12), num_shards=2)
    shard_of = plan.node_to_shard
    # 0-3 share classes 0/1 transitively; 5-6 share class 2; 7-10 share
    # classes 3/4.  Weights 5, 2 and 5: none above the fair share of 6.
    assert len({shard_of[n] for n in (0, 1, 2, 3)}) == 1
    assert len({shard_of[n] for n in (5, 6)}) == 1
    assert len({shard_of[n] for n in (7, 8, 9, 10)}) == 1
    # Every node is placed exactly once.
    placed = [n for shard in plan.shard_nodes for n in shard]
    assert sorted(placed) == list(range(12))


def test_plan_shards_is_deterministic_and_balanced():
    """Ten components of weight 3 over four shards: the *load* is what is
    levelled (9, 9, 6, 6), to within the heaviest component."""
    candidates = {k: tuple(range(k, k + 3)) for k in range(0, 30, 3)}
    a = plan_shards(candidates, range(40), 4)
    b = plan_shards(candidates, range(40), 4)
    assert a == b
    assert max(a.loads) - min(a.loads) <= 3
    assert 1.0 <= a.imbalance() <= 1.34


def _plan_and_components(candidates, node_ids, num_shards):
    """``plan_shards`` plus each affinity component's ``(weight, shards
    it touches)``, from a union-find of the test's own."""
    plan = plan_shards(candidates, node_ids, num_shards)
    group = {}
    for cand in candidates.values():
        merged = set(cand).union(*(group.get(n, ()) for n in cand))
        for n in merged:
            group[n] = merged
    shard_of = plan.node_to_shard
    components = {}
    for nodes in group.values():
        weight = sum(n in cand for cand in candidates.values() for n in nodes)
        components[min(nodes)] = (weight, {shard_of[n] for n in nodes})
    return plan, list(components.values())


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_plan_shards_packs_whole_components_by_load(data):
    num_nodes = data.draw(st.integers(1, 40))
    num_shards = data.draw(st.integers(1, min(4, num_nodes)))
    bidders = st.sets(st.integers(0, num_nodes - 1), min_size=1, max_size=5)
    classes = data.draw(st.lists(bidders, max_size=12))
    candidates = {k: tuple(sorted(cand)) for k, cand in enumerate(classes)}
    node_ids = list(range(num_nodes))
    plan, components = _plan_and_components(candidates, node_ids, num_shards)
    # Every node is placed exactly once, idle ones included.
    placed = [n for shard in plan.shard_nodes for n in shard]
    assert sorted(placed) == node_ids
    assert sum(plan.loads) == sum(len(cand) for cand in candidates.values())
    # A component no heavier than the fair share is never split, and the
    # whole-packed load is level to within the heaviest such component.
    share = sum(plan.loads) / num_shards
    packed = [0] * num_shards
    whole = [c for c in components if c[0] <= share]
    for weight, shards in whole:
        assert len(shards) == 1
        packed[min(shards)] += weight
    assert max(packed) - min(packed) <= max((c[0] for c in whole), default=0)
    # A pure function of the catalog: insertion and node order are moot.
    shuffled = data.draw(st.permutations(sorted(candidates)))
    assert plan == plan_shards(
        {k: candidates[k] for k in shuffled},
        data.draw(st.permutations(node_ids)),
        num_shards,
    )


def test_plan_shards_levels_the_frozen_zipf_workload():
    """The `zipf_planes_*` catalog at 2 shards: 30 components, none over
    the fair share, so both planes carry 270 memberships and the
    coordinator's residual plane carries none."""
    world = zipf_world(300, num_classes=120, seed=0)
    candidates = {
        qc.index: tuple(sorted(qc.candidate_nodes(world.placement)))
        for qc in world.classes
    }
    plan = plan_shards(candidates, list(world.placement.node_ids), 2)
    assert plan.loads == (270, 270)
    assert -1 not in split_market_classes(candidates, plan).values()


def test_plan_shards_rejects_bad_counts():
    with pytest.raises(ValueError):
        plan_shards({}, range(4), 0)
    with pytest.raises(ValueError):
        plan_shards({}, range(4), 5)


# ---------------------------------------------------------------------------
# shards=1 — byte identity with the single-process engine


def test_shards1_byte_identical_to_single_process():
    world, trace = _small_world()
    for mechanism, factory in (
        ("qa-nt", QantAllocator),
        ("greedy", GreedyAllocator),
    ):
        direct = run_mechanism(
            world, trace, mechanism, factory, FederationConfig(seed=2)
        )
        result = _sharded(world, shards=1).run(trace, mechanism)
        assert result.outcome_digest() == _outcome_digest(
            direct.metrics.outcomes
        )
        assert result.completed == direct.metrics.completed
        assert result.messages == direct.messages
        assert result.mean_response_ms() == pytest.approx(
            direct.metrics.mean_response_ms(), abs=0.0
        )


def test_sharded_outcome_digest_matches_the_tests_reference():
    """The planes' merged table hashes like the tests' own digest of its
    rows, as the ``shards=1`` delegation does above."""
    world, trace = _zipf_small()
    with _sharded(world, 2) as federation:
        for mechanism in ("qa-nt", "greedy"):
            result = federation.run(list(trace), mechanism)
            assert result.completed > 0
            assert result.outcome_digest() == _outcome_digest(
                result.metrics.outcomes
            )


# ---------------------------------------------------------------------------
# shards>1 — invariance across shard counts and worker modes


def test_invariant_payload_across_shard_counts_and_modes():
    """The sharded market's decisions do not depend on the partition.

    Inline vs fork pins the wire codec round trip (inline shards speak
    the same encoded frames); 2 vs 3 shards pins the merge order and the
    node-keyed RNG streams.
    """
    world, trace = _small_world()
    for mechanism in ("qa-nt", "greedy"):
        payloads = []
        for shards, mode in ((2, "inline"), (3, "inline"), (2, "fork")):
            with _sharded(world, shards, mode) as federation:
                payloads.append(
                    federation.run(trace, mechanism).invariant_payload()
                )
        assert payloads[0] == payloads[1] == payloads[2]
        assert payloads[0]["completed"] > 0


def test_rerun_on_same_federation_is_identical():
    """Worker reuse across runs must not leak state between runs."""
    world, trace = _small_world()
    with _sharded(world, 2, "fork") as federation:
        first = federation.run(trace, "qa-nt").invariant_payload()
        second = federation.run(trace, "qa-nt").invariant_payload()
    assert first == second


@pytest.mark.parametrize("mode", ["inline", "fork"])
def test_rerun_resets_the_planes_in_place(mode):
    """A plane's scalar kernels hold views of its arrays, bound once, so
    ``reset()`` must refill them, not re-allocate: a second run on the
    same planes (Zipf world: narrow classes, shard-side) is the first,
    bit for bit."""
    world, trace = _zipf_overloaded()
    with _overloaded(world, 2, mode) as federation:
        runs = [federation.run(trace, "qa-nt") for _ in range(2)]
    assert runs[0].invariant_payload() == runs[1].invariant_payload()
    assert runs[0].outcome_digest() == runs[1].outcome_digest()
    assert runs[0].batch_summary()["closed_settled"] > 0


def test_shard_counters_surface_in_batch_summary():
    world, trace = _small_world()
    with _sharded(world, 2) as federation:
        summary = federation.run(trace, "qa-nt").batch_summary()
    assert summary["shards"] == 2.0
    # The two-class world is one affinity component: every bid is priced
    # on the coordinator's residual plane.
    assert summary["cross_shard_bids"] == len(trace)
    assert summary["barrier_wait_ms"] >= 0.0
    assert summary["shard_imbalance"] >= 1.0
    # The single-process path must NOT grow these keys: existing goldens
    # serialise batch_summary() and would break.
    single = MetricsCollector().batch_summary()
    for key in ("cross_shard_bids", "barrier_wait_ms", "shard_imbalance"):
        assert key not in single


# ---------------------------------------------------------------------------
# the 1,000-node golden (shard-count/jobs invariant by construction)


@functools.lru_cache(maxsize=1)
def _1000node_fixture():
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
    return world, trace


def _sharded_1000node_payload(shards: int, mode: str) -> str:
    world, trace = _1000node_fixture()
    with _sharded(world, shards, mode) as federation:
        return _pair_payload(lambda m: federation.run(trace, m))


def test_sharded_1000node_matches_golden():
    """The 4-shard forked 1,000-node pair reproduces the stored payload."""
    assert _sharded_1000node_payload(4, "fork") == (
        GOLDEN_DIR / "sharded_1000node_seed0.json"
    ).read_text()


def _reference_payload(world, trace, config) -> str:
    return _pair_payload(
        lambda m: run_reference_market(world, trace, m, config)
    )


def test_reference_market_custody_chain():
    """The oracle is pinned to the engine it replaced: the PR 8 golden,
    and the payload that engine produced on the overloaded Zipf world
    (boundaries, retries, drops) just before it was deleted."""
    world, trace = _1000node_fixture()
    assert _reference_payload(world, trace, _CONFIG) == (
        GOLDEN_DIR / "sharded_1000node_seed0.json"
    ).read_text()
    world, trace = _zipf_overloaded()
    assert _reference_payload(world, list(trace), _OVERLOADED_CONFIG) == (
        GOLDEN_DIR / "coordinator_overloaded_zipf_seed0.json"
    ).read_text()


@pytest.mark.slow
def test_sharded_1000node_golden_is_shard_count_invariant():
    """The same golden re-verifies at a different shard count and mode —
    the "identical across --jobs/shard-count re-runs" acceptance pin."""
    assert _sharded_1000node_payload(2, "inline") == (
        GOLDEN_DIR / "sharded_1000node_seed0.json"
    ).read_text()


# ---------------------------------------------------------------------------
# transport


def test_sharded_scaling_cell_shape():
    payload = sharded_scaling_cell(
        "qa-nt", 2, 0, 0, num_nodes=30, mode="inline"
    )
    for key in (
        "shards",
        "completed",
        "wall_ms",
        "cross_shard_bids",
        "shard_imbalance",
    ):
        assert key in payload
    assert payload["shards"] == 2.0
    # The shards=1 origin delegates to the single-process engine; the
    # sweep aggregator indexes every cell by one uniform key set, so the
    # origin must carry (zeroed) shard counters too.  (Its *metrics* are
    # the legacy engine's, not the tick-barrier plane's — invariance
    # across counts holds among the multi-process points, shards >= 2.)
    origin = sharded_scaling_cell(
        "qa-nt", 1, 0, 0, num_nodes=30, mode="inline"
    )
    assert set(origin) == set(payload)
    assert origin["shards"] == 1.0
    assert origin["cross_shard_bids"] == 0.0
    assert origin["barrier_wait_ms"] == 0.0
    assert origin["shard_imbalance"] == 1.0


# ---------------------------------------------------------------------------
# market planes — ownership, exactness, reconciliation


@functools.lru_cache(maxsize=1)
def _zipf_small():
    """The affinity-rich local-market fixture: most classes shard-local."""
    world = zipf_world(num_nodes=50, num_classes=20, seed=0)
    trace = tuple(
        zipf_trace(
            20,
            mean_interarrival_ms=120.0,
            horizon_ms=60_000.0,
            origin_nodes=list(world.placement.node_ids),
            max_queries=400,
            seed=10,
        )
    )
    return world, trace


@functools.lru_cache(maxsize=2)
def _reference(mechanism: str):
    """The global tick market's invariant payload on the Zipf fixture."""
    world, trace = _zipf_small()
    return run_reference_market(
        world, list(trace), mechanism, _CONFIG
    ).invariant_payload()


@functools.lru_cache(maxsize=4)
def _local_baseline(mechanism: str):
    """Canonical invariant payload: 2 inline shards, default frames."""
    world, trace = _zipf_small()
    with _sharded(world, 2, "inline") as federation:
        return federation.run(list(trace), mechanism).invariant_payload()


def test_split_market_classes_component_granular():
    """Ownership is decided per affinity component, never per class."""
    candidates = {0: (0, 1), 1: (1, 2), 2: (5, 6), 3: (7,)}
    plan = plan_shards(candidates, node_ids=range(8), num_shards=2)
    owner = split_market_classes(candidates, plan)
    assert set(owner) == {0, 1, 2, 3}
    shard_of = plan.node_to_shard
    # Classes 0 and 1 share node 1: one component, one verdict for both.
    assert owner[0] == owner[1]
    for k, cand in candidates.items():
        shards_touched = {shard_of[n] for n in cand}
        if owner[k] >= 0:
            assert shards_touched == {owner[k]}
        else:
            assert len(shards_touched) > 1


def test_local_market_matches_coordinator_plane():
    """The N+1-plane engine reproduces the global market's decisions bit
    for bit — the exactness contract (DESIGN.md §7)."""
    for mechanism in ("qa-nt", "greedy"):
        assert _local_baseline(mechanism) == _reference(mechanism)


def _dealt_plan(candidates_by_class, node_ids, num_shards):
    """A deliberately bad partition: nodes dealt round-robin, so nearly
    every component spans the shards and prices on the residual plane."""
    nodes = sorted(node_ids)
    shard_nodes = tuple(tuple(nodes[s::num_shards]) for s in range(num_shards))
    return ShardPlan(
        num_shards=num_shards,
        shard_nodes=shard_nodes,
        loads=tuple(
            sum(n in cand for cand in candidates_by_class.values() for n in part)
            for part in shard_nodes
        ),
    )


def test_any_placement_same_outcome(monkeypatch):
    """Placement moves classes between planes — and the counters that
    say so — but never a decision: the packed plan and a dealt one both
    reproduce the golden."""
    world, trace = _zipf_small()
    golden = (GOLDEN_DIR / "localmarket_zipf_seed0.json").read_text()
    residual = {}
    for name, planner in (("packed", plan_shards), ("dealt", _dealt_plan)):
        monkeypatch.setattr(shards_engine, "plan_shards", planner)
        with _sharded(world, 2, "inline") as federation:
            runs = {
                m: federation.run(list(trace), m) for m in ("qa-nt", "greedy")
            }
        assert _pair_payload(runs.__getitem__) == golden
        residual[name] = runs["qa-nt"].batch_summary()["residual_classes"]
    assert residual["packed"] < residual["dealt"]


@pytest.mark.parametrize("mode", ["inline", "fork", "tcp"])
def test_local_market_invariant_across_transport_modes(mode):
    """Pipe, socket and inline planes make identical decisions — the tcp
    leg pins the JSON-frame wire's float round-trip on every CI run."""
    world, trace = _zipf_small()
    with _sharded(world, 2, mode) as federation:
        payload = federation.run(list(trace), "qa-nt").invariant_payload()
    assert payload == _local_baseline("qa-nt")
    assert payload["completed"] > 0


@given(
    shards=st.sampled_from([2, 4, 8]),
    mode=st.sampled_from(["inline", "fork", "tcp"]),
    bound=st.sampled_from([4, 64, shards_engine._SLICE_ROW_BOUND]),
    mechanism=st.sampled_from(["qa-nt", "greedy"]),
)
@settings(max_examples=12, deadline=None)
def test_local_market_invariance_property(shards, mode, bound, mechanism):
    """Invariant payload is identical across shard counts, transport
    modes and slice row bounds: how a plane's slice is cut into frames
    moves counters, never market arithmetic."""
    world, trace = _zipf_small()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(shards_engine, "_SLICE_ROW_BOUND", bound)
        with _sharded(world, shards, mode) as federation:
            run = federation.run(list(trace), mechanism)
    assert run.invariant_payload() == _local_baseline(mechanism)
    assert run.invariant_payload() == _reference(mechanism)


#: The keys of a sharded run's `batch_summary()`.  `perf/bench.py` reads
#: local_classes, residual_classes, shard_imbalance, batch_ticks,
#: batched_queries, reconcile_barriers and scalar_fallbacks.  No barrier
#: is left between reset and collect: `reconcile_barriers` reads 0.
_SINGLE_PROCESS_KEYS = {
    "batch_ticks", "batched_queries", "max_batch", "vector_exchanges",
    "scalar_fallbacks", "batch_syncs",
}
_SHARD_KEYS = {
    "cross_shard_bids", "barrier_wait_ms", "shard_imbalance", "shards",
    "reconcile_barriers", "local_classes", "residual_classes",
    "closed_settled",
}


def test_reconcile_counters_surface_in_batch_summary():
    world, trace = _zipf_small()
    with _sharded(world, 2, "inline", interval=4) as federation:
        summary = federation.run(list(trace), "qa-nt").batch_summary()
        posted = federation.transport.posted_frames
    assert set(summary) == _SINGLE_PROCESS_KEYS | _SHARD_KEYS
    assert summary["reconcile_barriers"] == 0.0
    assert posted > 0
    assert summary["local_classes"] > 0.0
    assert summary["local_classes"] + summary["residual_classes"] == 20.0
    # Single-process runs must NOT grow the shard keys: their goldens
    # serialise batch_summary() and would break.
    assert set(MetricsCollector().batch_summary()) == _SINGLE_PROCESS_KEYS


def test_routed_rows_count_as_protocol_bids():
    """A few ``slice`` frames per shard on the wire, but ``messages``
    keeps counting the bid *rows* routed to shards."""
    world, trace = _zipf_small()
    with _sharded(world, 4, "inline") as federation:
        result = federation.run(list(trace), "qa-nt")
        summary = result.batch_summary()
        owned = sum(federation._owner_of[e.class_index] >= 0 for e in trace)
        posted = federation.transport.posted_frames
    assert 0 < owned < len(trace)  # some classes are residual
    assert summary["cross_shard_bids"] == len(trace) - owned
    # Bids only: no barrier between reset and collect adds a message.
    assert result.messages == owned
    # Far fewer frames than bids: a slice frame and an end frame a shard.
    assert posted <= 2 * 4 < owned / 2
    assert 0 <= summary["closed_settled"] <= summary["vector_exchanges"]


def test_shard_self_time_is_reported_per_shard():
    world, trace = _zipf_small()
    with _sharded(world, 2, "fork") as federation:
        federation.run(list(trace), "qa-nt")
        times = federation.shard_self_time_s()
    assert len(times) == 2
    assert all(t >= 0.0 for t in times)
    assert sum(times) > 0.0


def test_tcp_workers_report_child_rss():
    """The collect barrier folds every tcp child's ru_maxrss into
    ``child_peak_kb()``."""
    world, trace = _zipf_small()
    with _sharded(world, 2, "tcp") as federation:
        federation.run(list(trace), "qa-nt")
        assert federation.transport.child_peak_kb() > 0


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity"), reason="needs CPU affinity calls"
)
@pytest.mark.parametrize("mode", ["fork", "tcp"])
def test_workers_claim_one_cpu_each(mode):
    """Each worker pins itself to a single allowed CPU, neighbours in a
    pool to different ones while CPUs last; the coordinator's own mask
    is left alone (the scheduler otherwise stacks the woken workers on
    the coordinator's CPU and run time turns bimodal)."""
    world, trace = _zipf_small()
    allowed = os.sched_getaffinity(0)
    with _sharded(world, 4, mode) as federation:
        federation.run(list(trace), "greedy")  # every worker has started
        masks = [
            os.sched_getaffinity(proc.pid)
            for proc in federation.transport._procs
        ]
    assert all(len(mask) == 1 and mask <= allowed for mask in masks)
    cpus = [next(iter(mask)) for mask in masks]
    assert len(set(cpus)) == min(len(cpus), len(allowed))
    assert os.sched_getaffinity(0) == allowed


# ---------------------------------------------------------------------------
# overload: per-class retry pools, slices cut at tick edges, own drains


@functools.lru_cache(maxsize=1)
def _zipf_overloaded():
    """A small Zipf world driven far past capacity: ~65 % of the queries
    are still pooled when the (shortened) drain window closes, pools run
    in the hundreds, and boundaries fire both in-trace and in the drain."""
    world = zipf_world(num_nodes=50, num_classes=20, seed=0)
    trace = tuple(
        zipf_trace(
            20,
            mean_interarrival_ms=100.0,
            horizon_ms=8_000.0,
            origin_nodes=list(world.placement.node_ids),
            max_queries=1_200,
            seed=10,
        )
    )
    return world, trace


def _overloaded(world, shards, mode="inline", interval=1):
    return _sharded(world, shards, mode, interval, _OVERLOADED_CONFIG)


def _outcome(result):
    return (
        result.invariant_payload(),
        result.batch_summary()["vector_exchanges"],
    )


@functools.lru_cache(maxsize=2)
def _overloaded_oracle(mechanism: str):
    """The global market of ``reference_market``: it keeps the flat
    pending list and prices every retry in full, so it is the
    differential oracle of the pools and the closed path."""
    world, trace = _zipf_overloaded()
    return _outcome(
        run_reference_market(
            world, list(trace), mechanism, _OVERLOADED_CONFIG
        )
    )


def test_overloaded_world_is_overloaded():
    payload, exchanges = _overloaded_oracle("qa-nt")
    offered = payload["completed"] + payload["dropped"]
    assert payload["dropped"] / offered >= 0.3
    # Every boundary re-exchanges the whole pool: hundreds per retry tick.
    assert exchanges > 5 * offered


@pytest.mark.parametrize("shards", [2, 4])
@pytest.mark.parametrize(
    "mode, intervals",
    # ``reconcile_interval`` is still accepted (``perf/`` passes 4) and
    # must move nothing; swept inline, one value on a real wire.
    [("inline", (1, 4, 16)), ("fork", (4,)), ("tcp", (4,))],
)
def test_overloaded_local_market_matches_coordinator_plane(
    mode, intervals, shards
):
    """Pools + slice frames + per-plane drains reproduce the flat-list,
    tick-by-tick market bit for bit, ``vector_exchanges`` included."""
    world, trace = _zipf_overloaded()
    for interval in intervals:
        with _overloaded(world, shards, mode, interval=interval) as federation:
            for mechanism in ("qa-nt", "greedy"):
                result = federation.run(list(trace), mechanism)
                assert _outcome(result) == _overloaded_oracle(mechanism)


def test_closed_settled_is_summed_over_planes():
    """Which plane owns a class does not change how it prices, so the
    count the planes fold through ``collect`` is partition-invariant."""
    world, trace = _zipf_overloaded()
    counts = []
    for shards, mode in ((2, "inline"), (4, "fork")):
        with _overloaded(world, shards, mode) as federation:
            summary = federation.run(list(trace), "qa-nt").batch_summary()
        counts.append(summary["closed_settled"])
    assert counts[0] == counts[1] > 0
    assert counts[0] < summary["vector_exchanges"]


def test_outbox_over_the_row_bound_splits_frames(monkeypatch):
    """A slice holding more rows than the bound goes out as several
    ``slice`` frames; the planes see the same ticks in the same order."""
    world, trace = _zipf_overloaded()
    default = shards_engine._SLICE_ROW_BOUND
    frames = {}
    for bound in (default, 16):
        monkeypatch.setattr(shards_engine, "_SLICE_ROW_BOUND", bound)
        with _overloaded(world, 2, "fork") as federation:
            result = federation.run(list(trace), "qa-nt")
            frames[bound] = federation.transport.posted_frames
        assert _outcome(result) == _overloaded_oracle("qa-nt")
    assert frames[16] > 2 * frames[default]


def test_plane_that_empties_early_stops_taking_boundaries():
    """Planes drain on their own pending count.  Shard 1's classes get a
    short burst whose pool empties periods before shard 0's (which is
    still backlogged when the drain window closes), so shard 1 stops
    taking boundaries while shard 0 goes on, and the outcome is still
    the global market's, which keeps every plane ticking until the whole
    federation is idle."""
    world, trace = _zipf_overloaded()
    with _overloaded(world, 2, "inline") as federation:
        owner = federation._owner_of
        # Shard 1: its classes' first 1.5 s, less the three whose pools
        # would outlast the run.
        burst = [
            e for e in trace
            if owner[e.class_index] == 1
            and e.time_ms < 1_500.0
            and e.class_index not in (6, 17, 18)
        ]
        mixed = sorted(
            [e for e in trace if owner[e.class_index] == 0] + burst,
            key=lambda e: e.time_ms,
        )
        pending = {0: [], 1: []}
        for shard, plane in enumerate(federation.transport._cores):
            boundary = plane.boundary

            def spy(now, boundary=boundary, log=pending[shard]):
                log.append(boundary(now))
                return log[-1]

            plane.boundary = spy
        result = federation.run(mixed, "qa-nt")
    assert max(pending[1]) > 0 and pending[1][-1] == 0
    emptied = pending[1].index(0, pending[1].index(max(pending[1])))
    assert pending[0][emptied] > 0 and pending[0][-1] > 0
    assert len(pending[1]) < len(pending[0])
    reference = run_reference_market(
        world, mixed, "qa-nt", _OVERLOADED_CONFIG
    )
    assert _outcome(result) == _outcome(reference)


@functools.lru_cache(maxsize=1)
def _quantised_overloaded():
    """The overloaded trace on a 100 ms grid: five ticks to a period."""
    world, trace = _zipf_overloaded()
    quantised = tuple(quantise_trace(trace, 100.0))
    oracle = _outcome(
        run_reference_market(
            world, list(quantised), "qa-nt", _OVERLOADED_CONFIG
        )
    )
    return world, quantised, oracle


@pytest.mark.parametrize("mode", ["fork", "tcp"])
def test_row_bound_never_splits_a_tick(monkeypatch, mode):
    """With the bound below one tick's rows (and far below a slice's)
    every frame of a shard's slice still ends on a tick edge: a tick
    handed to a plane in two ``market_tick`` calls would resync its busy
    mirror mid-tick and change the outcome.  The ``end`` frame follows
    the last slice frame.  A ``slice`` frame is its four columns as
    arrays; on tcp each crosses as a raw attachment of its own frame."""
    world, trace, oracle = _quantised_overloaded()
    assert len({e.time_ms for e in trace}) * 8 < len(trace)
    monkeypatch.setattr(shards_engine, "_SLICE_ROW_BOUND", 4)
    payloads = []

    def framed(payload):
        payloads.append(payload)
        return encode_frame(payload)

    monkeypatch.setattr(shards_wire, "encode_frame", framed)
    with _overloaded(world, 2, mode) as federation:
        transport = federation.transport
        post, rounds = transport.post, []

        def spy(frames):
            rounds.append(frames)
            post(frames)

        transport.post = spy
        result = federation.run(list(trace), "qa-nt")
    assert _outcome(result) == oracle
    horizon = trace[-1].time_ms
    assert rounds[-1] == [("end", horizon, horizon + 2_500.0)] * 2
    for shard in range(2):
        frames = [r[shard] for r in rounds[:-1] if r[shard] is not None]
        assert {frame[0] for frame in frames} == {"slice"}
        assert all(
            shards_plane._slice_problem(frame[1:]) is None for frame in frames
        )
        last_sent = -1.0
        for _, times, *_ in frames:
            assert times.min() > last_sent  # no tick spans two
            last_sent = times.max()
        periods = math.ceil(horizon / FederationConfig().period_ms)
        assert len(frames) > 3 * periods
    # What the tcp wire wrote: each slice frame's four columns as the
    # attachments its header references, <f8 then three <i8.
    prefix = shards_wire._WIRE_PREFIX
    slices = []
    for payload in payloads:
        size, count = prefix.unpack_from(payload)
        header = json.loads(payload[prefix.size : prefix.size + size])
        if isinstance(header, list) and header[:1] == ["post"]:
            if header[1][0] == "slice":
                slices.append((count, header[1][1:]))
    posted = sum(frame is not None for r in rounds[:-1] for frame in r)
    assert len(slices) == (posted if mode == "tcp" else 0)
    for count, columns in slices:
        assert count == 4
        assert [column["@"] for column in columns] == ["<f8"] + ["<i8"] * 3


@pytest.mark.parametrize(
    "event, complaint",
    [
        (WorkloadEvent(5.0, 20, 3), "event 7 has class_index 20"),
        (WorkloadEvent(5.0, -1, 3), "event 7 has class_index -1"),
        (WorkloadEvent(5.0, 2, 50), "event 7 has origin_node 50"),
        (WorkloadEvent(5.0, 2, 1.5), "event 7 has origin_node 1.5"),
        (WorkloadEvent(math.nan, 2, 3), "event 7 has time_ms nan"),
        (WorkloadEvent(math.inf, 2, 3), "event 7 has time_ms inf"),
    ],
)
def test_unroutable_trace_event_is_a_named_error(event, complaint):
    """A class no plane owns (or an origin outside the federation, or a
    time that is not finite and so sorts nowhere) is
    refused before the reset barrier, not as a ``KeyError`` inside a
    plane after frames were posted; the federation stays usable."""
    world, trace = _zipf_small()
    bad = list(trace)
    bad.insert(7, event)
    with _overloaded(world, 2, "fork") as federation:
        before = federation.run(list(trace), "qa-nt").invariant_payload()
        with pytest.raises(ValueError, match=complaint):
            federation.run(bad, "qa-nt")
        after = federation.run(list(trace), "qa-nt").invariant_payload()
    assert before == after


def _plane(init, crossover=None):
    """A ``_MarketPlane`` pricing classes (and, inside a lane book, live
    sets) of up to ``crossover`` lanes with the scalar kernels (``None``:
    as shipped, 0: lane books on array steps only, 99: the scalar kernels
    only)."""
    with pytest.MonkeyPatch.context() as patch:
        if crossover is not None:
            patch.setattr(market_tick, "SCALAR_LANES_MAX", crossover)
        return _MarketPlane(init)


class _FlatListReference:
    """The discipline the pools and the closed path replace: one flat
    pending list, every pooled query re-exchanged (``resub + 1``) at
    every boundary, every exchange through the full per-exchange
    program — a lane book on array steps unless ``crossover`` says
    otherwise, so a shipped plane's scalar kernels are compared with
    ``LaneBook``, not with themselves.  The wrapped plane only prices
    and replays: its own pools stay empty and its fast-path marks are
    wiped before each exchange, so neither the saturated skip nor the
    closed raise ever runs here.
    """

    def __init__(self, init, crossover=0):
        self.plane = _plane(init, crossover)
        self.pending = []
        self.exchanges = 0
        #: ``(class, period serial)`` pairs that saw an all-refuse
        #: exchange under a threshold, and the later exchanges on them
        #: that could still raise a price: the expected ``closed_settled``.
        self.closed = set()
        self.closed_settled = 0

    def _exchange(self, k, now):
        plane = self.plane
        key = (k, plane._period_serial)
        if key in self.closed and (plane._block.prices[k] != plane._cap).any():
            self.closed_settled += 1
        plane._saturated_in.clear()
        plane._closed_in.clear()
        node = plane._exchange(k, now)
        if node is None and plane._threshold is not None:
            self.closed.add(key)
        return node

    def market_tick(self, now, rows):
        assignments = []
        for row in rows:
            node = self._exchange(row[1], now)
            if node is None:
                self.pending.append(row)
            else:
                assignments.append(row + (node,))
        self.exchanges += len(rows)
        if assignments:
            self.plane._replay(now, assignments)

    def boundary(self, now):
        self.plane.boundary(now)  # decay + eq. 4; nothing pooled inside
        retry = [(q, k, o, a, r + 1) for q, k, o, a, r in self.pending]
        self.pending = []
        self.market_tick(now, retry)


def _plane_init(costs, cap=4.0, threshold=2.0, allowances=None):
    """A JSON-safe ``_MarketPlane`` spec from ``costs[node][class]``
    (``inf`` = not a candidate); a node's allowance defaults (``None``,
    for all or one of them) to a period plus twice its largest cost."""
    nodes = list(range(len(costs)))
    num_classes = len(costs[0])
    allowances = allowances or [None] * len(costs)
    return {
        "node_ids": nodes,
        "num_classes": num_classes,
        "costs": costs,
        "allowances": [
            500.0 + 2.0 * max((c for c in row if not math.isinf(c)), default=0.0)
            if allowance is None
            else allowance
            for row, allowance in zip(costs, allowances)
        ],
        "latency_seeds": [derive_fault_seed(2, ("n", n)) for n in nodes],
        "base_ms": 1.0,
        "jitter_ms": 0.5,
        "factor": 1.1,
        "floor": 0.01,
        "cap": cap,
        "adjustment": 0.1,
        "threshold": threshold,
        "period_ms": 500.0,
        "classes": [
            [k, [n for n in nodes if not math.isinf(costs[n][k])]]
            for k in range(num_classes)
        ],
    }


def _assert_same_market(plane, reference):
    """Everything observable of ``plane`` equals the per-exchange
    reference: prices, supply, latches, clocks, pools, outcome columns
    and counters.  ``_maxp`` is compared on unlatched agents only — a
    closed raise skips it on latched ones, where nothing can read it."""
    block, ref = plane._block, reference.plane._block
    for k in plane.class_indices:
        assert block.prices[k].tolist() == ref.prices[k].tolist()
        assert block.supply[k].tolist() == ref.supply[k].tolist()
    assert block.locked.tolist() == ref.locked.tolist()
    open_ = ~block.locked
    assert block.maxp[open_].tolist() == ref.maxp[open_].tolist()
    ref = reference.plane
    assert plane._busy.tolist() == ref._busy.tolist()
    assert plane._exec_busy.tolist() == ref._exec_busy.tolist()
    assert plane._cols == ref._cols  # resub column too
    assert plane.exchanges == reference.exchanges
    assert plane._closed_settled == reference.closed_settled
    assert plane.pending_count == len(reference.pending)
    pooled = [q for pool in plane._pools.values() for q, *_ in pool]
    assert sorted(pooled) == [row[0] for row in reference.pending]
    for pool in plane._pools.values():
        qids = [entry[0] for entry in pool]
        assert qids == sorted(set(qids))
    serial = plane._period_serial
    for k in plane.class_indices:
        if plane._closed_in.get(k) == serial:
            # Closed: no supply, every bidder latched; saturated iff capped.
            assert (block.supply[k] < 1.0).all()
            assert block.locked[block.members[k]].all()
            assert (plane._saturated_in.get(k) == serial) == bool(
                (block.prices[k] == plane._cap).all()
            )


@st.composite
def _plane_scripts(draw):
    num_nodes = draw(st.integers(2, 5))
    num_classes = draw(st.integers(1, 4))
    cost = st.sampled_from([math.inf, 150.0, 400.0, 900.0])
    costs = [
        [draw(cost) for _ in range(num_classes)] for _ in range(num_nodes)
    ]
    for k in range(num_classes):  # every class keeps one bidder
        costs[k % num_nodes][k] = 300.0
    # cap 4.0 saturates 15 raises in; at 1e9 a class stays closed but
    # unsaturated for hundreds of exchanges.
    cap = draw(st.sampled_from([4.0, 1e9]))
    threshold = draw(st.sampled_from([2.0, 2.0, None]))
    # Small allowances leave a node's lanes sold out for many periods (at
    # 10, a unit every 30 or more), so periods open sold out at the cap;
    # None is the default, which restocks a lane at nearly every boundary.
    allowances = [
        draw(st.sampled_from([0.0, 10.0, 160.0, None])) for _ in range(num_nodes)
    ]
    script = draw(
        st.lists(
            st.one_of(
                st.none(),  # a period boundary
                st.lists(st.integers(0, num_classes - 1), max_size=12),
            ),
            min_size=1,
            max_size=40,
        )
    )
    return _plane_init(costs, cap, threshold, allowances), script


def _slice_columns(rows):
    """Arrival ``rows`` ``(qid, class, origin, arrival, 0)`` as the
    columns a plane's ``run_slice`` prices."""
    qids, classes, origins, times, _resub = zip(*rows) if rows else [()] * 5
    return (
        np.array(times, dtype=np.float64),
        *(np.array(column, dtype=np.int64) for column in (qids, classes, origins)),
    )


def _run_script(init, script, crossovers=(None, 0)):
    """Drive a plane and the reference through ``script`` (``None`` = a
    boundary, a list = one tick of class indices); compares the two,
    then yields the plane, after every step.  The plane prices a tick
    through ``run_slice`` and takes a boundary through ``finish`` with
    the drain window closed.  ``crossovers`` are the plane's and the
    reference's (:func:`_plane`): by default the shipped kernels against
    lane books on array steps."""
    plane = _plane(init, crossovers[0])
    reference = _FlatListReference(init, crossovers[1])
    now, qid, boundaries = 0.0, 0, 0
    for step in script:
        if step is None:
            boundaries += 1
            now = 500.0 * boundaries
            plane.finish(now, now)
            reference.boundary(now)
        else:
            now += 7.0
            rows = [(qid + n, k, n, now, 0) for n, k in enumerate(step)]
            qid += len(rows)
            plane.run_slice(_slice_columns(rows))
            reference.market_tick(now, rows)
        _assert_same_market(plane, reference)
        yield plane


@given(_plane_scripts())
@settings(max_examples=60, deadline=None)
def test_market_plane_pools_match_flat_list_reference(case):
    for _step in _run_script(*case):
        pass


@pytest.mark.parametrize("crossover", [99, 0], ids=["scalar", "array"])
@given(_plane_scripts())
@settings(max_examples=30, deadline=None)
def test_market_plane_pools_match_on_one_kernel(crossover, case):
    """The same sweep with both sides on the scalar kernels only, and on
    lane books only (where the closed path calls ``refusal_raise``)."""
    for plane in _run_script(*case, crossovers=(crossover, crossover)):
        assert len(plane._block.books) == (0 if crossover else len(plane.class_indices))


# Nodes 0-2, class A on {0, 1}, class B on {1, 2}: node 1 couples them.
_SHARED_BIDDER = [[300.0, math.inf], [300.0, 400.0], [math.inf, 400.0]]
A, B = 0, 1


@pytest.mark.parametrize("cap", [2000.0, 1e9])
@pytest.mark.parametrize("burst", [6, 40])
def test_closed_class_next_to_an_open_one(cap, burst):
    """Class A closes inside an arrival tick while B, sharing a bidder,
    still has supply; each boundary's retry tick then settles A's pool
    in bulk — 16 entries end below either cap, 50 run into the cap of
    2000 part-way — and the market equals the per-exchange reference
    after every step."""
    script = [
        [A] * 20 + [B, A, A],  # A sells out, latches, closes mid-tick
        [B, A, B],  # an arrival on closed A between two live B bids
        None,
        [A] * burst,
        None,  # retry tick: A's whole pool meets the closed path
        [A, B] * 3,
        None,
    ]
    seen = []
    for plane in _run_script(_plane_init(_SHARED_BIDDER, cap), script):
        serial = plane._period_serial
        seen.append(
            (
                plane._closed_in.get(A) == serial,
                plane._saturated_in.get(A) == serial,
                plane._closed_settled,
            )
        )
        if len(seen) == 1:  # closure reached by an arrival tick
            assert seen[0][0] and seen[0][2] > 0
            assert B not in plane._closed_in
            assert (plane._block.supply[B] >= 1.0).any()
    pool = len(plane._pools[A])
    assert pool > burst
    bulk = seen[4][2] - seen[3][2]
    if (cap, burst) == (2000.0, 40):
        assert seen[4][1] and 0 < bulk < pool - 1  # stopped at the cap
    else:
        assert not seen[4][1] and bulk >= burst  # ran the pool's length
    assert all(closed for closed, _saturated, _settled in seen)


# A period opens sold out at the cap when supply stays at 0 across a
# boundary: allowances of 10 ms restock a 300 ms lane about every 30
# periods.  "pooled": A, then B, sell out with queries pooled, so each
# boundary opens them saturated and the retry tick meets them at once;
# B opens below the cap at the first boundary.  "unpooled": one class on
# two nodes, node 1 restocked about every other period; at a cap of 2.2
# a unit sold at a retry tick empties the pool, so the class opens
# saturated with nothing pooled, and is met by an arrival (steps 6 and
# 12) or by nothing in its period (step 8).  "below-cap": A sells
# out and its bidders latch, but at a cap of 1e9 its prices stay far
# below it, so no period opens saturated.
_OPENS_SATURATED = {
    "below-cap": (
        _SHARED_BIDDER, [10.0] * 3, 1e9,
        [[A] * 12, None, [A, B], None, [A]],
        [[], [], []],
        [[]] * 5,
    ),
    "pooled": (
        _SHARED_BIDDER, [10.0] * 3, 4.0,
        [[A] * 20, None, [A, B], None, [B] * 20, None, [A], None, None],
        [[], [A], [A], [A, B], [A, B], [A, B]],
        [[]] * 9,
    ),
    "unpooled": (
        [[300.0], [300.0]], [10.0, 160.0], 2.2,
        [[A] * 9, None, None, None, None, None, [A], None, None, None, [A],
         None, [A]],
        [[], [A], [], [A], [], [A], [], [A], [], [A]],
        [[], [], [], [], [], [A], [], [], [A], [], [], [A], []],
    ),
}


@pytest.mark.parametrize("case", sorted(_OPENS_SATURATED))
def test_periods_that_open_saturated(case, monkeypatch):
    """Supply that stays at 0 across boundaries opens periods with a class
    sold out at the cap and every bidder past the threshold: saturated
    before any exchange.  The plane skips the exchange that would find
    that out and writes its latches when the class is first met; the
    market equals the per-exchange reference after every step, the
    latches included, whether the class is met by the retry tick, by an
    arrival or not at all."""
    costs, allowances, cap, script, opened, unmet = _OPENS_SATURATED[case]
    solves = []
    solve = _MarketPlane._period_solve

    def spy(self, now):
        solve(self, now)
        serial = self._period_serial
        saturated = [
            k for k in self.class_indices if self._saturated_in.get(k) == serial
        ]
        solves.append((self, saturated))

    monkeypatch.setattr(_MarketPlane, "_period_solve", spy)
    init = _plane_init(costs, cap, 2.0, allowances)
    seen = []
    for plane in _run_script(init, script):
        seen.append(sorted(plane._unmet))
    assert [saturated for owner, saturated in solves if owner is plane] == opened
    assert seen == unmet


@pytest.mark.parametrize(
    "terms, complaint",
    [
        ({"factor": 1.0}, "raise_factor"),
        ({"factor": math.nan}, "raise_factor"),
        ({"cap": 0.0}, "price_cap"),
        ({"cap": math.inf}, "price_cap"),
    ],
)
def test_plane_refuses_raise_terms_that_unsettle_the_cap(terms, complaint):
    """A plane skips lanes settled at the cap (and whole saturated
    classes), which needs ``cap * factor`` to clamp back to the cap; its
    init mapping carries raw floats, so it checks them itself."""
    with pytest.raises(ValueError, match=complaint):
        _MarketPlane({**_plane_init(_SHARED_BIDDER), **terms})


def test_collect_replies_with_typed_arrays():
    """A plane's ``collect`` reply carries its outcome columns as 1-D
    arrays of the merge's dtypes and no numpy scalar anywhere: a list
    of numpy-float64 scalars per row is what made a reply slow to
    pickle."""
    plane = _plane(_plane_init(_SHARED_BIDDER))
    for tick, (now, k) in enumerate(((7.0, A), (7.0, B), (9.0, A))):
        plane.run_slice(
            _slice_columns([(3 * tick + n, k, n, now, 0) for n in range(3)])
        )
    plane.boundary(500.0)
    reply = plane.collect()
    columns = reply["columns"]
    i8, f8 = np.dtype(np.int64), np.dtype(np.float64)
    assert [column.dtype for column in columns] == [
        i8, i8, i8, f8, f8, i8, f8, f8, i8
    ]
    assert all(
        isinstance(column, np.ndarray) and column.ndim == 1 for column in columns
    )
    assert [column.tolist() for column in columns] == [
        list(column) for column in plane._cols
    ]
    assert len(columns[0]) == plane.assigned > 0
    assert not any(isinstance(value, np.generic) for value in reply.values())
    # The rows as the digest renders them, one end offset per row.
    rows = metrics_module.render_outcome_rows([c.tolist() for c in columns])
    assert b"".join(reply["text"]) == "".join(rows).encode("ascii")
    assert reply["row_ends"].dtype == np.int64
    assert reply["row_ends"].tolist() == np.cumsum([len(r) for r in rows]).tolist()


def _digests_by_mode(chunk_rows=None):
    """Per (mode, shards, mechanism) of the Zipf fixture: the digest over
    the planes' rendered rows and the collector's own.  ``chunk_rows``
    patches the rows per rendered and per hashed chunk, before the
    workers fork."""
    world, trace = _zipf_small()
    digests = {}
    with pytest.MonkeyPatch.context() as patch:
        if chunk_rows is not None:
            patch.setattr(metrics_module, "_DIGEST_ROWS", chunk_rows)
            patch.setattr(shards_plane, "_RENDER_ROWS", chunk_rows)
        for mode in ("inline", "fork", "tcp"):
            for shards in (2, 3):
                with _sharded(world, shards, mode) as federation:
                    for mechanism in ("qa-nt", "greedy"):
                        result = federation.run(list(trace), mechanism)
                        assert result.rendered is not None
                        digests[mode, shards, mechanism] = (
                            result.outcome_digest(),
                            result.metrics.outcome_digest(),
                        )
    return digests


def test_planes_render_the_rows_the_collector_hashes():
    """The digest of a sharded run hashes the rows the planes rendered at
    ``collect``; on every mode and shard count it equals the collector's
    digest of the merged table, and so does every other run's."""
    digests = _digests_by_mode()
    for mechanism in ("qa-nt", "greedy"):
        seen = {digests[key] for key in digests if key[2] == mechanism}
        assert len(seen) == 1
        (planes, collector), = seen
        assert planes == collector


@pytest.mark.parametrize("digest_rows", [None, 7])
def test_digest_renders_the_residual_planes_rows(digest_rows, monkeypatch):
    """At four shards the Zipf fixture's table mixes rows the shards
    rendered with rows of the coordinator's own plane, which has no text
    and is rendered by the digest; the mix hashes as the collector's."""
    if digest_rows is not None:
        monkeypatch.setattr(metrics_module, "_DIGEST_ROWS", digest_rows)
    world, trace = _zipf_small()
    with _sharded(world, 4) as federation:
        for mechanism in ("qa-nt", "greedy"):
            result = federation.run(list(trace), mechanism)
            which = result.rendered[1]
            assert 0 < (which < 0).sum() < len(which)
            assert result.outcome_digest() == result.metrics.outcome_digest()


def test_rendered_rows_hash_the_same_in_small_chunks():
    """Seven rows per chunk, both where the planes render and where the
    coordinator hashes: chunk edges fall inside every plane's text and
    inside every hashed run of rows, and no digest moves."""
    assert shards_plane._RENDER_ROWS > 7
    assert _digests_by_mode(chunk_rows=7) == _digests_by_mode()


def test_no_threshold_never_closes():
    """Without the activation latch no bidder is ever latched, so no
    class closes: every exchange runs the full program."""
    init = _plane_init(_SHARED_BIDDER, 1e9, threshold=None)
    script = [[A] * 30, None, [A] * 30 + [B], None, None]
    for plane in _run_script(init, script):
        assert plane._closed_in == {} and plane._closed_settled == 0
    assert plane.pending_count > 30


def test_wide_and_narrow_class_share_a_bidder():
    """Class A, padded past the crossover, runs a lane book; class
    B, two lanes, the scalar kernels; node ``pad`` bids in both, so its
    running maximum, latch and busy clock are written by one kernel and
    read by the other.  The plane equals the all-array reference after
    every step, through sell-out, closure and two retry ticks."""
    pad = market_tick.SCALAR_LANES_MAX
    costs = [[300.0 + 10.0 * n, math.inf] for n in range(pad)]
    costs += [[150.0, 200.0], [math.inf, 400.0]]
    script = [
        [A] * (4 * pad) + [B, A, B] * 4,  # the shared node wins in both
        [B] * 8 + [A] * 3,  # B sells out; the shared node latches there
        None,
        [A, B] * (2 * pad),
        None,
        [B, A] * 3,
        None,
    ]
    closed = set()
    for plane in _run_script(_plane_init(costs, 2000.0), script):
        assert list(plane._block.books) == [A]
        closed.update(plane._closed_in)
    assert closed == {A, B} and plane._closed_settled > 0


@pytest.mark.parametrize("mechanism", ["qa-nt", "greedy"])
def test_laneless_class_pools_like_the_event_engine(mechanism):
    """No node holds class 1's relation, so the class has no lanes in
    whichever plane owns it: its queries pool untraded and drop at the
    end, on the planes as on the event engine, while class 0 trades."""
    world = dataclasses.replace(
        two_query_world(num_nodes=4, seed=0),
        placement=Placement({n: {0} for n in range(4)}),
    )
    trace = [WorkloadEvent(25.0 * i, i % 2, i % 4) for i in range(40)]
    factory = QantAllocator if mechanism == "qa-nt" else GreedyAllocator
    event = run_mechanism(world, trace, mechanism, factory, _CONFIG).metrics
    assert (event.completed, event.dropped) == (20, 20)
    for shards in (1, 2, 3):
        with _sharded(world, shards) as federation:
            metrics = federation.run(trace, mechanism).metrics
            if shards > 1:
                # Both classes are the residual plane's.  Its drain stops
                # once class 0's pool is empty (boundaries at 500, 1,000
                # and 1,500 ms); class 1's pool kept it going to the end
                # of the drain window, 121 boundaries in all.
                residual = federation._residual
                assert residual.class_indices == [0, 1]
                assert residual._boundaries == (3 if mechanism == "qa-nt" else 0)
        assert (metrics.completed, metrics.dropped, metrics.in_flight) == (
            event.completed, event.dropped, event.in_flight
        )
        assert {o.class_index for o in metrics.outcomes} == {0}


def _aliased(block, V, R):
    """Whether ``block`` prices exactly the flat arrays ``V`` / ``R``:
    its per-class views and its books' lanes, once armed, share their
    memory."""
    return (
        block.V is V
        and block.R is R
        and all(
            np.shares_memory(block.prices[k], V)
            and np.shares_memory(block.supply[k], R)
            for k in block.prices
        )
        and all(
            book.V is None
            or (np.shares_memory(book.V, V) and np.shares_memory(book.R, R))
            for book in block.books.values()
        )
    )


def test_per_class_arrays_alias_the_flat_lane_block():
    """A lane block's per-class ``prices[k]`` / ``supply[k]`` are views of
    its engine's flat lanes, on both engines: a plane's own ``_Vf`` /
    ``_Rf`` before and after a reset and a boundary, and the period
    engine's ``V`` / ``R`` under the single-process dispatcher after
    bind, after every boundary and after the end of the run.  Boundaries
    and the eq. 4 solve work on the flat arrays, the exchanges on the
    views, and a rebind of either would fork the market's state."""
    init, script = _plane_init(_SHARED_BIDDER), [[A] * 25 + [B], None, [A, B]]

    def aliased(plane):
        return _aliased(plane._block, plane._Vf, plane._Rf)

    plane = _MarketPlane(init)
    assert aliased(plane)
    for plane in _run_script(init, script):
        assert aliased(plane)
    assert len(plane._Vf) == len(plane._Rf) == 4  # lanes: A on 2, B on 2
    plane.reset(True)
    assert aliased(plane)
    plane.boundary(500.0)
    assert aliased(plane)

    # One wide class (30 lanes, a lane book) and one narrow (15, the twin).
    world = two_query_world(num_nodes=30, seed=0)
    allocator = QantAllocator()
    federation = build_federation(
        world.specs,
        world.placement,
        world.classes,
        world.cost_model,
        allocator,
        FederationConfig(seed=2),
    )
    engine, block = allocator._engine, allocator._dispatcher.block
    assert set(block.books) == {0} and set(block.prices) == {0, 1}
    assert _aliased(block, engine.V, engine.R)
    seen = []
    on_period_start = allocator.on_period_start

    def checked():
        on_period_start()
        seen.append(_aliased(block, engine.V, engine.R))

    allocator.on_period_start = checked
    federation.run(
        sinusoid_trace_for_load(
            world, load_fraction=1.5, horizon_ms=2_000.0, seed=3
        )
    )
    assert len(seen) > 2 and all(seen)
    assert _aliased(block, engine.V, engine.R)
    assert allocator.batch_dispatch_stats.lane_steps > 0


# ---------------------------------------------------------------------------
# worker death: a typed failure, every child reaped


@pytest.mark.skipif(
    "PYTEST_XDIST_WORKER" in os.environ,
    reason="kill/reap timing must not share cores with xdist workers",
)
@pytest.mark.parametrize("mode", ["fork", "tcp"])
def test_killed_worker_raises_shard_failure_and_close_reaps(mode, monkeypatch):
    world, trace = _zipf_overloaded()
    # No test module leaves workers behind, so "every child reaped" is
    # global.
    assert multiprocessing.active_children() == []
    federation = _overloaded(world, 2, mode)
    transport = federation.transport
    victim = transport._procs[0]
    post = transport.post

    def post_then_kill(frames):
        post(frames)
        if victim.is_alive() and frames[0] is not None:
            # Mid-run: the first slice frame is out, the end frame not.
            assert frames[0][0] == "slice"
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=5.0)

    monkeypatch.setattr(shards_engine, "_SLICE_ROW_BOUND", 64)
    transport.post = post_then_kill
    try:
        # Raising at all is the bound: a barrier on a dead worker that
        # went undetected would hang the run, not fail it.
        with pytest.raises(ShardFailure) as failure:
            federation.run(list(trace), "qa-nt")
        assert failure.value.shard == 0
        assert failure.value.op in ("slice", "end", "collect")
        assert "shard 0" in str(failure.value)
        clone = pickle.loads(pickle.dumps(failure.value))
        assert (clone.shard, clone.op) == (0, failure.value.op)
        assert str(clone) == str(failure.value)
    finally:
        federation.close()
    assert multiprocessing.active_children() == []
    assert not any(proc.is_alive() for proc in transport._procs)


@pytest.mark.skipif(
    "PYTEST_XDIST_WORKER" in os.environ,
    reason="kill/reap timing must not share cores with xdist workers",
)
@pytest.mark.parametrize("mode", ["fork", "tcp"])
def test_worker_killed_before_collect_fails_the_collect(mode):
    """A worker that dies after its ``end`` frame, while the coordinator
    still runs the residual plane, is caught at the one barrier left."""
    world, trace = _zipf_overloaded()
    assert multiprocessing.active_children() == []
    federation = _overloaded(world, 2, mode)
    transport = federation.transport
    victim = transport._procs[1]
    post = transport.post

    def post_then_kill(frames):
        post(frames)
        if frames[1] is not None and frames[1][0] == "end":
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=5.0)

    transport.post = post_then_kill
    try:
        with pytest.raises(ShardFailure) as failure:
            federation.run(list(trace), "qa-nt")
        assert (failure.value.shard, failure.value.op) == (1, "collect")
    finally:
        federation.close()
    assert multiprocessing.active_children() == []
    assert not any(proc.is_alive() for proc in transport._procs)


_PLANE_METHOD_OF_OP = {"slice": "run_slice", "end": "finish", "collect": "collect"}


@pytest.mark.parametrize("mode", ["fork", "tcp"])
@pytest.mark.parametrize("op", sorted(_PLANE_METHOD_OF_OP))
def test_worker_exception_reaches_the_coordinator(mode, op, monkeypatch):
    """A frame that raises inside a worker used to kill it, leaving the
    coordinator a closed channel.  Now the worker answers the next
    barrier with its traceback (a posted ``slice`` or ``end`` frame's
    failure waits for ``collect``), the run fails as a ``ShardFailure``
    naming the shard and the frame that raised, and ``close()`` reaps
    every worker."""
    world, trace = _zipf_overloaded()
    assert multiprocessing.active_children() == []
    candidates = {
        qc.index: tuple(sorted(qc.candidate_nodes(world.placement)))
        for qc in world.classes
    }
    owner = split_market_classes(
        candidates,
        plan_shards(candidates, list(world.placement.node_ids), 2),
    )
    victim = sorted(k for k, shard in owner.items() if shard == 1)
    method = _PLANE_METHOD_OF_OP[op]
    original = getattr(_MarketPlane, method)
    calls = []

    def scripted(self, *args):
        # Shard 1's plane only (a forked worker counts its own calls):
        # its second slice frame, or its end / collect frame.
        if self.class_indices == victim:
            calls.append(op)
            if op != "slice" or len(calls) == 2:
                raise ArithmeticError("scripted %s failure" % op)
        return original(self, *args)

    monkeypatch.setattr(shards_engine, "_SLICE_ROW_BOUND", 64)
    monkeypatch.setattr(_MarketPlane, method, scripted)
    federation = _overloaded(world, 2, mode)
    transport = federation.transport
    try:
        with pytest.raises(ShardFailure) as failure:
            federation.run(list(trace), "qa-nt")
        assert (failure.value.shard, failure.value.op) == (1, op)
        text = str(failure.value.args[2])
        assert "Traceback" in text
        assert "ArithmeticError: scripted %s failure" % op in text
        assert calls == []  # the victim plane ran in a worker, not here
    finally:
        federation.close()
    assert multiprocessing.active_children() == []
    assert not any(proc.is_alive() for proc in transport._procs)


# ---------------------------------------------------------------------------
# start-up: a bad init or a bad worker is a named error, nothing left behind


def test_market_keyword_has_one_value_left():
    world, __ = _small_world()
    with pytest.raises(ValueError, match="coordinator-market engine was removed"):
        ShardedFederation(
            world.specs,
            world.placement,
            world.classes,
            world.cost_model,
            shards=2,
            mode="inline",
            market="coordinator",
        )


def test_reconcile_interval_is_checked_but_moves_nothing():
    """``perf/`` still passes ``reconcile_interval``: it must stay a legal
    keyword, refused below 1, with no barrier behind it."""
    world, trace = _zipf_small()
    with pytest.raises(ValueError, match="reconcile_interval must be >= 1"):
        _sharded(world, 2, interval=0)
    with _sharded(world, 2, interval=16) as federation:
        run = federation.run(list(trace), "qa-nt")
    assert run.invariant_payload() == _local_baseline("qa-nt")
    assert run.batch_summary()["reconcile_barriers"] == 0.0


@pytest.mark.parametrize("mode", ["fork", "tcp", "inline"])
def test_unknown_worker_kind_is_refused_before_any_fork(mode):
    """A misspelt ``kind`` used to be a ``KeyError`` inside a daemon
    worker, which the coordinator only saw as an EOF on its first frame."""
    inits = [{"kind": "market"}, {"kind": "market"}, {"kind": "exec"}]
    with pytest.raises(
        ValueError,
        match=r"shard init 2 has kind 'exec': expected one of \['market'\]",
    ):
        ShardTransport(inits, mode=mode)
    with pytest.raises(ValueError, match="shard init 0 has kind None"):
        ShardTransport([{}], mode=mode)
    assert multiprocessing.active_children() == []


def _exits_at_once(host, port, index):
    """A tcp worker that dies before it connects."""


def _claims_seat(seat, host, port, index):
    channel = shards_wire._WireChannel(
        socket.create_connection((host, port))
    )
    channel.send(["hello", seat])
    try:
        channel.recv()  # until the coordinator hangs up (or kills us)
    except (EOFError, OSError):
        pass


@pytest.mark.parametrize(
    "worker, cause",
    [
        (_exits_at_once, "worker exited before connecting"),
        (functools.partial(_claims_seat, 99), "99] names no empty seat"),
        (functools.partial(_claims_seat, 0), "0] names no empty seat"),
    ],
    ids=["exits", "out-of-range", "repeated"],
)
def test_tcp_start_up_fails_fast_on_a_bad_worker(monkeypatch, worker, cause):
    """``accept()`` had no way out when a worker died before connecting,
    and the ``hello`` index was trusted as it arrived."""
    monkeypatch.setattr(shards_wire, "_tcp_shard_worker", worker)
    started = time.perf_counter()
    with pytest.raises(ShardFailure, match=cause) as failure:
        ShardTransport([{"kind": "market"}] * 2, mode="tcp")
    assert failure.value.op == "hello"
    assert time.perf_counter() - started < 5.0
    assert multiprocessing.active_children() == []


def _answers_garbage(real_worker, garbage, host, port, index):
    """Shard 0 seats itself, takes its init, then answers every sync
    frame (``close`` included) with ``garbage``; other shards are real."""
    if index:
        return real_worker(host, port, index)
    sock = socket.create_connection((host, port))
    channel = shards_wire._WireChannel(sock)
    channel.send(["hello", index])
    try:
        channel.recv()  # the init frame
        while True:
            if channel.recv()[0] != "post":
                sock.sendall(garbage)
    except (EOFError, OSError):
        pass


def _reply_frame(cells):
    """A well-framed reply carrying one column: ``cells``, a hand-built
    attachment (``test_protocol._Cells``)."""
    return encode_frame(_wire_payload({"ok": True, "columns": [cells]}))


@pytest.mark.parametrize(
    "garbage, cause",
    [
        (
            encode_frame(shards_wire._WIRE_PREFIX.pack(8, 0) + b"not json"),
            "header is not JSON",
        ),
        (b"\xff\xff\xff\xff", "exceeds MAX_FRAME_BYTES"),
        (
            _reply_frame(_Cells("|O8", bytes(8))),
            r"unknown attachment tag '\|O8'",
        ),
        (
            # Cells that cannot be read (once, base64 that was not):
            # a reference past the end of the frame.
            _reply_frame(_Cells("<f8", bytes(8), n=16)),
            "lies outside the 8 bytes after the header",
        ),
        (
            _reply_frame(_Cells("<i8", bytes(7))),
            "not a whole number of 8-byte cells",
        ),
    ],
    ids=["not-json", "hostile-length", "object-dtype", "bad-base64", "ragged"],
)
def test_malformed_tcp_frame_is_a_shard_failure(monkeypatch, garbage, cause):
    """Socket bytes are outside input: a reply whose header is not JSON,
    or a length prefix past the frame ceiling, used to surface as a bare
    ``ValueError`` naming neither shard nor op; an attachment that does
    not read is refused the same way."""
    worker = functools.partial(
        _answers_garbage, shards_wire._tcp_shard_worker, garbage
    )
    monkeypatch.setattr(shards_wire, "_tcp_shard_worker", worker)
    world, trace = _zipf_small()
    federation = _sharded(world, 2, "tcp")
    try:
        with pytest.raises(ShardFailure, match=cause) as failure:
            federation.run(list(trace), "qa-nt")
        assert failure.value.shard == 0
        assert "shard 0" in str(failure.value)
    finally:
        federation.close()
    assert multiprocessing.active_children() == []


def _float_qids(reply):
    reply["columns"][0] = reply["columns"][0] + 0.5


def _eight_columns(reply):
    del reply["columns"][8]


def _ragged_columns(reply):
    reply["columns"][3] = np.append(reply["columns"][3], 0.0)


def _no_pending(reply):
    del reply["pending"]


def _no_maxrss(reply):
    del reply["maxrss_kb"]


def _text_maxrss(reply):
    reply["maxrss_kb"] = "big"


def _text_self_time(reply):
    reply["self_time_s"] = "soon"


def _nan_self_time(reply):
    reply["self_time_s"] = math.nan


def _joined_text(reply):
    reply["text"] = b"".join(reply["text"])


def _non_ascii_text(reply):
    reply["text"][0] = "\u00e9".encode() + reply["text"][0][2:]


def _float_row_ends(reply):
    reply["row_ends"] = reply["row_ends"].astype(float)


def _short_row_ends(reply):
    reply["row_ends"] = reply["row_ends"][:-1]


def _stalled_row_ends(reply):
    ends = reply["row_ends"].copy()
    ends[1] = ends[0]
    reply["row_ends"] = ends


def _long_text(reply):
    reply["text"].append(b";")


def _misrendered_first_row(reply):
    text = reply["text"][0]
    reply["text"][0] = (b"2" if text[:1] == b"1" else b"1") + text[1:]


def _dropped_last_row(reply):
    """The last row gone from the columns, the text and ``row_ends``
    alike: a reply every shape check passes."""
    ends = reply["row_ends"]
    reply["columns"] = [column[:-1] for column in reply["columns"]]
    reply["text"] = [b"".join(reply["text"])[: int(ends[-2])]]
    reply["row_ends"] = ends[:-1]


def _straddling_row(reply):
    text = b"".join(reply["text"])
    cut = int(reply["row_ends"][0]) + 1  # inside row 1
    reply["text"] = [text[:cut], text[cut:]]


@pytest.mark.parametrize("mode", ["inline", "tcp"])
@pytest.mark.parametrize(
    "mangle, complaint",
    [
        (_float_qids, "outcome column 0 is not a 1-D int64 array"),
        (_eight_columns, "expected 9 outcome columns"),
        (_ragged_columns, "outcome column 3 has .* rows, column 0 has"),
        (_no_pending, "counter 'pending' is None"),
        (_no_maxrss, "counter 'maxrss_kb' is None"),
        (_text_maxrss, "counter 'maxrss_kb' is 'big'"),
        (_text_self_time, "self_time_s is 'soon': expected a finite"),
        (_nan_self_time, "self_time_s is nan: expected a finite"),
        (_joined_text, "text is not a list of ASCII strings"),
        (_non_ascii_text, "text is not a list of ASCII strings"),
        (_float_row_ends, "row_ends is not a 1-D int64 array of .* offsets"),
        (_short_row_ends, "row_ends is not a 1-D int64 array of .* offsets"),
        (_stalled_row_ends, "row_ends is not increasing"),
        (_long_text, "row_ends ends at .*, the text has .* characters"),
        (_straddling_row, "a row straddles two text chunks"),
        (_dropped_last_row, "the reply accounts for .* rows, .* were routed"),
        (
            _misrendered_first_row,
            "row .*'s text is not the rendering of its merged columns",
        ),
    ],
    ids=[
        "float-qids", "eight-columns", "ragged", "no-pending", "no-maxrss",
        "text-maxrss", "text-self-time", "nan-self-time", "joined-text",
        "non-ascii-text", "float-row-ends", "short-row-ends",
        "stalled-row-ends", "long-text", "straddling-row", "dropped-row",
        "misrendered-row",
    ],
)
def test_malformed_collect_reply_is_a_shard_failure(
    mode, mangle, complaint, monkeypatch
):
    """A reply's columns used to be merged unchecked: a worker that sent
    its qids as floats finished the run with every qid truncated.  A
    missing or non-numeric peak RSS or self-time escaped ``run()`` as a
    bare ``KeyError``, ``TypeError`` or ``ValueError``.  A reply that
    dropped a row whole merged short."""

    class _Mangling(shards_plane._MarketPlane):
        def handle(self, frame):
            reply = super().handle(frame)
            if frame[0] == "collect":
                mangle(reply)
            return reply

    world, trace = _zipf_small()
    monkeypatch.setitem(_CORE_KINDS, "market", _Mangling)
    federation = _sharded(world, 2, mode)
    try:
        # Every shard mangles its reply; shard 0's is checked first.
        with pytest.raises(ShardFailure, match=complaint) as failure:
            federation.run(list(trace), "qa-nt")
        assert (failure.value.shard, failure.value.op) == (0, "collect")
        assert isinstance(failure.value.args[2], ProtocolError)
    finally:
        federation.close()
    assert multiprocessing.active_children() == []


#: A well-formed one-row ``slice`` frame's columns.
_ONE_ROW_SLICE = (
    np.array([5.0]),
    np.array([0], dtype=np.int64),
    np.array([0], dtype=np.int64),
    np.array([0], dtype=np.int64),
)


@pytest.mark.parametrize("mode", ["fork", "tcp"])
@pytest.mark.parametrize(
    "columns, complaint",
    [
        (_ONE_ROW_SLICE[:3], "expected 4 slice columns"),
        (
            (_ONE_ROW_SLICE[0], np.array([0.0]), *_ONE_ROW_SLICE[2:]),
            "slice column 1 is not a 1-D int64 array",
        ),
        (
            (*_ONE_ROW_SLICE[:2], np.array([0, 1]), _ONE_ROW_SLICE[3]),
            "slice column 2 has 2 rows, column 0 has 1",
        ),
        ((np.array([math.nan]), *_ONE_ROW_SLICE[1:]), "non-finite"),
    ],
    ids=["three-columns", "float-qids", "ragged", "nan-time"],
)
def test_malformed_slice_frame_is_a_shard_failure(mode, columns, complaint):
    """A worker refuses a ``slice`` frame unless it holds four 1-D
    columns of the slice dtypes, of one length, with finite times; the
    refusal reaches the coordinator as a ``ShardFailure`` of shard 0's
    ``slice`` frame that names the complaint.  The tcp wire cannot pack
    a NaN at all, so there the coordinator's write fails the shard."""
    world, trace = _zipf_small()
    federation = _sharded(world, 2, mode)
    transport = federation.transport
    try:
        transport.exchange([("reset", True)] * 2)
        with pytest.raises(ShardFailure, match=complaint) as failure:
            transport.post([("slice", *columns), None])
            transport.exchange([("collect",)] * 2)
        assert (failure.value.shard, failure.value.op) == (0, "slice")
    finally:
        federation.close()
    assert multiprocessing.active_children() == []


#: Well-framed tcp frames a worker cannot read: a posted slice whose one
#: column is three bytes (not a whole cell), and a bare JSON number.
_UNREADABLE_FRAMES = {
    "malformed-attachment": _wire_payload(
        ["post", ["slice", _Cells("<f8", bytes(3))]]
    ),
    "bare-number": _wire_payload(5),
}


@pytest.mark.parametrize("kind", sorted(_UNREADABLE_FRAMES))
def test_unreadable_frame_fails_the_shard_not_the_worker(kind):
    """A frame a tcp worker could not decode, or one that is no op and
    arguments, used to kill the worker with a traceback, so the
    coordinator saw only ``EOFError('shard wire closed')``.  Now the
    worker reports it at the next barrier, naming the ``ProtocolError``,
    and stays up until ``close``."""
    world, _trace = _zipf_small()
    federation = _sharded(world, 2, "tcp")
    transport = federation.transport
    try:
        transport.exchange([("reset", True)] * 2)
        transport._peers[0]._sock.sendall(encode_frame(_UNREADABLE_FRAMES[kind]))
        with pytest.raises(ShardFailure, match="ProtocolError") as failure:
            transport.exchange([("collect",)] * 2)
        assert (failure.value.shard, failure.value.op) == (0, "collect")
        assert isinstance(failure.value.args[2], RuntimeError)
        assert all(proc.is_alive() for proc in transport._procs)
    finally:
        federation.close()
    assert [proc.exitcode for proc in transport._procs] == [0, 0]
    assert multiprocessing.active_children() == []


class _EchoCore:
    """Worker double that answers every frame ``ok``."""

    def __init__(self, init):
        pass

    def handle(self, frame):
        return {"ok": True}


class _NanReplyCore(_EchoCore):
    """Worker double whose ``collect`` reply holds a NaN float64 cell."""

    def handle(self, frame):
        if frame[0] == "collect":
            return {"columns": [np.array([1.0, math.nan])]}
        return {"ok": True}


def test_a_reply_the_wire_cannot_carry_is_a_named_failure():
    """A worker whose reply the tcp wire refuses (a non-finite float64
    cell) used to die in the write, seen only as an ``EOFError``; it
    now sends the refusal in the reply's place and stays up until
    ``close``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(_CORE_KINDS, "echo", _NanReplyCore)
        transport = ShardTransport([{"kind": "echo"}], mode="tcp")
    try:
        transport.exchange([("reset", True)])
        with pytest.raises(ShardFailure, match="non-finite") as failure:
            transport.exchange([("collect",)])
        assert (failure.value.shard, failure.value.op) == (0, "collect")
        assert transport._procs[0].is_alive()
    finally:
        transport.close()
    assert transport._procs[0].exitcode == 0


#: Attachment references a hostile peer may write, by kind; each frame
#: is a posted ``slice`` around them.
_HOSTILE_REFERENCES = {
    "past-the-payload": st.one_of(
        st.builds(
            lambda cells, at: [_Cells("<i8", bytes(8 * cells), at=at)],
            st.integers(0, 3),
            st.integers(1, 1 << 40),
        ),
        st.builds(
            lambda cells, extra: [_Cells("<f8", bytes(8 * cells), n=8 * (cells + extra))],
            st.integers(0, 3),
            st.integers(1, 1 << 37),
        ),
        st.integers(max_value=-1).map(lambda at: [_Cells("<i8", bytes(8), at=at)]),
    ),
    "overlapping": st.builds(
        lambda tag, at: [_Cells("<i8", bytes(16)), _Cells(tag, bytes(8), at=at)],
        st.sampled_from(["<i8", "<f8", "bytes"]),
        st.integers(0, 15),
    ),
    "ragged": st.builds(
        lambda tag, size: [_Cells(tag, bytes(size))],
        st.sampled_from(["<i8", "<f8"]),
        st.integers(1, 64).filter(lambda size: size % 8),
    ),
    "unknown-tag": st.text(max_size=6)
    .filter(lambda tag: tag not in ("<i8", "<f8", "bytes"))
    .map(lambda tag: [_Cells(tag, bytes(8))]),
}


@pytest.mark.parametrize("kind", sorted(_HOSTILE_REFERENCES))
@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_hostile_attachment_references_are_a_named_shard_failure(kind, data):
    """Whatever a frame's references claim, the tcp worker refuses the
    frame and reports it at the next barrier as a ``ShardFailure`` of
    its shard naming the ``ProtocolError``, within a second; it neither
    hangs nor dies, and exits at ``close``."""
    cells = data.draw(_HOSTILE_REFERENCES[kind])
    payload = _wire_payload(["post", ["slice", *cells]])
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(_CORE_KINDS, "echo", _EchoCore)
        transport = ShardTransport([{"kind": "echo"}], mode="tcp")
    try:
        transport.exchange([("reset", True)])
        transport._peers[0]._sock.sendall(encode_frame(payload))
        started = time.perf_counter()
        with pytest.raises(ShardFailure, match="ProtocolError") as failure:
            transport.exchange([("collect",)])
        assert time.perf_counter() - started < 1.0
        assert (failure.value.shard, failure.value.op) == (0, "collect")
        assert transport._procs[0].is_alive()
    finally:
        transport.close()
    assert transport._procs[0].exitcode == 0


def test_a_hostile_length_prefix_is_reported_then_the_worker_exits():
    """Past a length prefix over ``MAX_FRAME_BYTES`` a worker cannot find
    the next frame, ``close`` included: it sends its failure at once,
    which the next barrier raises naming the prefix, and exits."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(_CORE_KINDS, "echo", _EchoCore)
        transport = ShardTransport([{"kind": "echo"}], mode="tcp")
    try:
        transport.exchange([("reset", True)])
        transport._peers[0]._sock.sendall(b"\xff\xff\xff\xff")
        with pytest.raises(ShardFailure, match="exceeds MAX_FRAME_BYTES") as failure:
            transport.exchange([("collect",)])
        assert (failure.value.shard, failure.value.op) == (0, "collect")
        transport._procs[0].join(timeout=5.0)
        assert transport._procs[0].exitcode == 0
    finally:
        transport.close()


@pytest.mark.parametrize("frame", [("collect",), ("reset", True)], ids=lambda f: f[0])
def test_an_unreadable_barrier_frame_is_answered_at_once(frame):
    """A barrier frame whose header the tcp worker cannot read used to
    get no reply, so the coordinator waited out ``_WIRE_DEADLINE_S`` and
    reported a ``TimeoutError``.  The worker now answers it with its
    ``ProtocolError`` at once, and still exits at ``close``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(shards_wire, "_WIRE_DEADLINE_S", 5.0)
        patch.setitem(_CORE_KINDS, "echo", _EchoCore)
        transport = ShardTransport([{"kind": "echo"}], mode="tcp")
        peer = transport._peers[0]

        def mangled(frame):
            head, buffers = shards_wire._wire_encode(frame)
            payload = bytearray(b"".join([head, *buffers]))
            payload[shards_wire._WIRE_PREFIX.size] ^= 0xFF  # header's "["
            peer._sock.sendall(encode_frame(bytes(payload)))

        try:
            transport.exchange([("reset", True)])
            patch.setattr(peer, "send", mangled)
            started = time.perf_counter()
            with pytest.raises(ShardFailure, match="ProtocolError") as failure:
                transport.exchange([frame])
            assert time.perf_counter() - started < 1.0
            assert (failure.value.shard, failure.value.op) == (0, frame[0])
            assert transport._procs[0].is_alive()
        finally:
            patch.undo()
            transport.close()
    assert transport._procs[0].exitcode == 0


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.binary(max_size=12)
    | st.lists(st.integers(-(2**63), 2**63 - 1), max_size=4).map(
        lambda cells: np.array(cells, dtype=np.int64)
    ),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["at", "n", "ok"]), inner),
    max_leaves=6,
)


def _wire_bytes(value):
    """``value``'s frame payload as the tcp wire writes it."""
    head, buffers = shards_wire._wire_encode(value)
    return b"".join([head, *buffers])


def _cut_mid_payload(value, cut):
    """``value``'s frame, cut after its length prefix and before its last
    byte (inside the header or an attachment)."""
    frame = encode_frame(_wire_bytes(value))
    return frame[: 4 + cut % (len(frame) - 4)]


#: What a broken or hostile peer may put on the wire before it hangs up.
_WIRE_GARBAGE = {
    "garbage": st.binary(max_size=48),
    "cut-mid-payload": st.builds(
        _cut_mid_payload, _JSON_VALUES, st.integers(0, 1 << 8)
    ),
    "hostile-length": st.integers(MAX_FRAME_BYTES + 1, (1 << 32) - 1).map(
        lambda length: length.to_bytes(4, "big")
    ),
    "not-json": st.binary(max_size=16).map(
        lambda b: encode_frame(
            shards_wire._WIRE_PREFIX.pack(len(b) + 1, 0) + b"\xff" + b
        )
    ),
    "json-not-a-frame": _JSON_VALUES.map(_wire_bytes),
}


@given(
    st.lists(st.one_of(*_WIRE_GARBAGE.values()), min_size=1, max_size=3),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_wire_channel_takes_any_bytes_then_a_hang_up(blobs, polled):
    """Whatever a peer writes before it closes, the channel hands back
    frames and then raises ``EOFError`` or ``ValueError``: it never hangs
    and never raises anything else."""
    ours, theirs = socket.socketpair()
    channel = shards_wire._WireChannel(ours)
    try:
        theirs.sendall(b"".join(blobs))
        theirs.close()
        started = time.perf_counter()
        with pytest.raises((EOFError, ValueError)):
            while True:
                if polled:
                    assert channel.poll(2.0), "a hung-up wire timed out"
                channel.recv()
        assert time.perf_counter() - started < 2.0
    finally:
        channel.close()


@pytest.mark.parametrize("kind", sorted(_WIRE_GARBAGE))
@given(data=st.data())
@settings(max_examples=5, deadline=None)
def test_wire_garbage_is_a_shard_failure(kind, data):
    """Through the transport's barrier read, each kind of broken wire is
    a ``ShardFailure`` naming the shard and the op, within the deadline."""
    blob = data.draw(_WIRE_GARBAGE[kind])
    transport = ShardTransport([], mode="inline")
    ours, theirs = socket.socketpair()
    transport._peers = [shards_wire._WireChannel(ours)]
    try:
        theirs.sendall(blob)
        theirs.close()
        started = time.perf_counter()
        with pytest.raises(ShardFailure) as failure:
            while True:
                transport._recv(0, "collect")
        assert time.perf_counter() - started < 2.0
        assert (failure.value.shard, failure.value.op) == (0, "collect")
        assert isinstance(failure.value.args[2], (EOFError, ValueError))
    finally:
        transport._peers[0].close()


@pytest.mark.parametrize("joined_bytes", [0, 1 << 20], ids=["pieces", "joined"])
def test_wire_send_puts_the_joined_frame_on_the_socket(joined_bytes, monkeypatch):
    """Written attachment by attachment or joined, a frame is the same
    bytes as ``encode_frame`` of its payload, and the other end reads it
    back."""
    monkeypatch.setattr(shards_wire, "_JOINED_FRAME_BYTES", joined_bytes)
    reply = {
        "columns": [np.arange(5), np.linspace(0.0, 1.0, 5)],
        "text": [b"1,2,0.5;", b"3,4,0.25;"],
        "row_ends": np.array([8, 17]),
        "pending": 0,
    }
    expected = encode_frame(_wire_bytes(reply))
    ours, theirs = socket.socketpair()
    sender = shards_wire._WireChannel(ours)
    try:
        sender.send(reply)
        theirs.settimeout(5.0)
        got = b""
        while len(got) < len(expected):
            got += theirs.recv(1 << 16)
        assert got == expected
        theirs.sendall(got)
        echoed = sender.recv()
        assert echoed["text"] == reply["text"]
        assert echoed["row_ends"].tolist() == [8, 17]
        assert echoed["columns"][1].tolist() == reply["columns"][1].tolist()
    finally:
        sender.close()
        theirs.close()


# ---------------------------------------------------------------------------
# frame ordering under scripted worker delays


class _SleepyEchoCore:
    """Scripted-delay worker double: answers a ``collect`` frame with
    its own identity, after sleeping its scripted delay."""

    def __init__(self, init):
        self._ident = int(init["ident"])
        self._delay_s = float(init["delay_s"])

    def handle(self, frame):
        if frame[0] == "collect":
            time.sleep(self._delay_s)
            return {"ident": self._ident}
        return {"ok": True}


@pytest.mark.parametrize("mode", ["fork", "tcp"])
def test_out_of_order_replies_keep_fixed_shard_merge(mode):
    """A slow shard 0 lets shard 1's reply reach the coordinator first;
    the merge must still come back in fixed shard order."""
    inits = [
        {"kind": "test-sleepy", "ident": 0, "delay_s": 0.25},
        {"kind": "test-sleepy", "ident": 1, "delay_s": 0.0},
    ]
    _CORE_KINDS["test-sleepy"] = _SleepyEchoCore
    try:
        transport = ShardTransport(inits, mode=mode)
        try:
            started = time.perf_counter()
            replies = transport.exchange([("collect",), ("collect",)])
            elapsed = time.perf_counter() - started
            assert [reply["ident"] for reply in replies] == [0, 1]
            # Both requests were in flight together: the barrier costs
            # max(delays), not their sum (double-buffering's guarantee).
            assert elapsed < 2 * 0.25
        finally:
            transport.close()
    finally:
        del _CORE_KINDS["test-sleepy"]


class _StuckCore:
    """Scripted stuck worker: shard 0 sleeps inside its first ``slice``
    frame for far longer than any test, so it reads no further frame;
    every other shard answers at once."""

    def __init__(self, init):
        self._stuck = init["ident"] == 0

    def handle(self, frame):
        if frame[0] == "slice" and self._stuck:
            time.sleep(600.0)
        return {"ok": True}


def _shard_warnings(caplog):
    return [
        record.getMessage()
        for record in caplog.records
        if record.name == "repro.sim.shards"
        and record.levelno == logging.WARNING
    ]


@pytest.mark.parametrize("mode", ["fork", "tcp"])
def test_close_is_bounded_by_a_stuck_worker(mode, monkeypatch, caplog):
    """``close()`` used to wait for every worker's acknowledgement with
    no bound, so a worker stuck inside a posted frame hung it forever;
    the kill it falls back on is logged, naming the shard."""
    grace = 0.5
    monkeypatch.setattr(shards_wire, "_CLOSE_GRACE_S", grace)
    monkeypatch.setitem(_CORE_KINDS, "test-stuck", _StuckCore)
    assert multiprocessing.active_children() == []
    transport = ShardTransport(
        [{"kind": "test-stuck", "ident": n} for n in range(2)], mode=mode
    )
    transport.post([("slice", ""), None])
    time.sleep(0.2)  # shard 0 is asleep inside the frame
    started = time.perf_counter()
    with caplog.at_level(logging.WARNING, logger="repro.sim.shards"):
        transport.close()
    assert time.perf_counter() - started < grace + 2.0
    assert multiprocessing.active_children() == []
    assert not any(proc.is_alive() for proc in transport._procs)
    # Shard 1 may be killed too: the stuck shard's wait can use up the
    # grace period the whole pool shares.
    assert "shard 0 did not exit within 0.5 s of 'close'; killing it" in (
        _shard_warnings(caplog)
    )


@pytest.mark.parametrize("mode", ["fork", "tcp"])
def test_recv_deadline_fails_a_silent_shard(mode, monkeypatch, caplog):
    """A worker that never answers ``collect`` used to hang the barrier
    on a bare ``recv()``; now the shard fails by name within the
    deadline, the timeout is logged, and ``close()`` reaps the worker."""
    deadline = 0.5
    monkeypatch.setattr(shards_wire, "_WIRE_DEADLINE_S", deadline)
    monkeypatch.setattr(shards_wire, "_CLOSE_GRACE_S", 0.5)
    monkeypatch.setitem(_CORE_KINDS, "test-sleepy", _SleepyEchoCore)
    assert multiprocessing.active_children() == []
    transport = ShardTransport(
        [{"kind": "test-sleepy", "ident": 0, "delay_s": 600.0}], mode=mode
    )
    try:
        started = time.perf_counter()
        with caplog.at_level(logging.WARNING, logger="repro.sim.shards"):
            with pytest.raises(ShardFailure) as failure:
                transport.exchange([("collect",)])
        assert time.perf_counter() - started < deadline + 2.0
        assert (failure.value.shard, failure.value.op) == (0, "collect")
        assert isinstance(failure.value.args[2], TimeoutError)
    finally:
        with caplog.at_level(logging.WARNING, logger="repro.sim.shards"):
            transport.close()
    assert multiprocessing.active_children() == []
    assert _shard_warnings(caplog) == [
        "shard 0 sent no 'collect' reply within 0.5 s",
        "shard 0 did not exit within 0.5 s of 'close'; killing it",
    ]


@pytest.mark.parametrize("mode", ["fork", "tcp"])
def test_send_deadline_fails_a_shard_that_stopped_reading(
    mode, monkeypatch, caplog
):
    """A ``post`` to a worker stuck inside an earlier frame used to block
    forever once the pipe or socket buffer filled; now the write fails
    the shard by name when the peer takes no more bytes for the
    deadline, the timeout is logged, and ``close()`` reaps the worker."""
    deadline = 0.5
    monkeypatch.setattr(shards_wire, "_WIRE_DEADLINE_S", deadline)
    monkeypatch.setattr(shards_wire, "_CLOSE_GRACE_S", 0.5)
    monkeypatch.setitem(_CORE_KINDS, "test-stuck", _StuckCore)
    assert multiprocessing.active_children() == []
    transport = ShardTransport(
        [{"kind": "test-stuck", "ident": n} for n in range(2)], mode=mode
    )
    frame = ("slice", "x" * (1 << 20))
    try:
        started = time.perf_counter()
        with caplog.at_level(logging.WARNING, logger="repro.sim.shards"):
            with pytest.raises(ShardFailure) as failure:
                # Far more than any buffer holds: shard 0 sleeps in the
                # first frame and reads none of the others.
                for _ in range(64):
                    transport.post([frame, None])
        assert time.perf_counter() - started < 4 * deadline + 2.0
        assert (failure.value.shard, failure.value.op) == (0, "slice")
        assert isinstance(failure.value.args[2], TimeoutError)
    finally:
        with caplog.at_level(logging.WARNING, logger="repro.sim.shards"):
            transport.close()
    assert multiprocessing.active_children() == []
    assert _shard_warnings(caplog)[0] == (
        "shard 0 took no more of a 'slice' frame within 0.5 s"
    )


class _BigReplyCore:
    """Scripted worker whose ``collect`` reply is ``init["mib"]`` MiB of
    distinct text, far more than a pipe's or a socket's buffers hold."""

    def __init__(self, init):
        self._mib = int(init["mib"])

    def handle(self, frame):
        if frame[0] == "collect":
            return {"text": ["%07d " % n * (1 << 17) for n in range(self._mib)]}
        return {"ok": True}


@pytest.mark.skipif(
    "PYTEST_XDIST_WORKER" in os.environ,
    reason="exit timing must not share cores with xdist workers",
)
@pytest.mark.parametrize("mode", ["fork", "tcp"])
def test_worker_send_deadline_ends_a_worker_nobody_reads(mode, monkeypatch):
    """A worker whose coordinator stopped reading used to block in its
    reply's write until ``close()`` killed it.  Its own end of the wire
    now has the send deadline too (patched before the fork), so the write
    fails once the buffers are full and stay full for the deadline, and
    the worker exits cleanly by itself."""
    deadline = 0.5
    monkeypatch.setattr(shards_wire, "_WIRE_DEADLINE_S", deadline)
    monkeypatch.setitem(_CORE_KINDS, "test-big", _BigReplyCore)
    assert multiprocessing.active_children() == []
    transport = ShardTransport([{"kind": "test-big", "mib": 16}], mode=mode)
    worker = transport._procs[0]
    try:
        transport._send(0, ("collect",))  # its reply is never read
        worker.join(timeout=deadline + 10.0)
        assert not worker.is_alive()
        assert worker.exitcode == 0
    finally:
        transport.close()
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# the local-market golden (shard/mode/frame invariant by construction)


def _localmarket_zipf_payload(shards: int, mode: str) -> str:
    world, trace = _zipf_small()
    with _sharded(world, shards, mode) as federation:
        return _pair_payload(lambda m: federation.run(list(trace), m))


def test_localmarket_zipf_matches_golden():
    """The 4-shard forked Zipf pair reproduces the stored payload."""
    assert _localmarket_zipf_payload(4, "fork") == (
        GOLDEN_DIR / "localmarket_zipf_seed0.json"
    ).read_text()


@pytest.mark.slow
def test_localmarket_golden_is_config_invariant(monkeypatch):
    """The same golden re-verifies over sockets at a different shard
    count and with slices cut into 16-row frames."""
    monkeypatch.setattr(shards_engine, "_SLICE_ROW_BOUND", 16)
    assert _localmarket_zipf_payload(2, "tcp") == (
        GOLDEN_DIR / "localmarket_zipf_seed0.json"
    ).read_text()
