"""Integration tests for repro.sim.federation (end-to-end runs)."""

import math
import random

import pytest

from repro.allocation import GreedyAllocator, QantAllocator, RandomAllocator
from repro.experiments.setups import (
    sinusoid_trace_for_load,
    two_query_world,
)
from repro.allocation.base import Allocator, AssignmentDecision
from repro.query import MachineSpec
from repro.sim import DrainCapExceeded, FederationConfig, build_federation
from repro.sim import federation as federation_module
from repro.sim.engine import Simulator
from repro.sim.faults import FaultSpec
from repro.sim.federation import FederationSimulation
from repro.sim.network import LatencyModel, Network
from repro.sim.node import SimulatedNode
from repro.workload.trace import WorkloadEvent


@pytest.fixture(scope="module")
def world():
    return two_query_world(num_nodes=10, seed=2)


def run(world, allocator, trace, **config_kwargs):
    config = FederationConfig(seed=4, **config_kwargs)
    federation = build_federation(
        world.specs,
        world.placement,
        world.classes,
        world.cost_model,
        allocator,
        config,
    )
    metrics = federation.run(trace)
    return federation, metrics


class _ScriptedAllocator(Allocator):
    """Sends query ``qid`` to ``routes[qid] = (node_id, delay_ms)``."""

    name = "scripted"

    def __init__(self, routes):
        super().__init__()
        self._routes = routes

    def assign(self, query):
        node_id, delay_ms = self._routes[query.qid]
        return AssignmentDecision(node_id, delay_ms=delay_ms)


def _scripted_federation(costs, routes):
    """Node *i* runs class 0 in ``costs[i]`` ms; the wire is instant."""
    sim = Simulator()
    latency = LatencyModel(base_ms=0.0, jitter_ms=0.0)
    nodes = {
        i: SimulatedNode(i, MachineSpec(), frozenset({0}), [cost], sim)
        for i, cost in enumerate(costs)
    }
    return FederationSimulation(
        nodes=nodes,
        classes=(),
        candidates_by_class={0: tuple(nodes)},
        allocator=_ScriptedAllocator(routes),
        simulator=sim,
        network=Network(sim, latency),
        config=FederationConfig(latency=latency, drain_ms=1_000.0),
    )


@pytest.fixture(scope="module")
def light_trace(world):
    return sinusoid_trace_for_load(
        world, load_fraction=0.4, horizon_ms=20_000.0, seed=5
    )


class TestEndToEnd:
    def test_all_queries_complete_under_light_load(self, world, light_trace):
        __, metrics = run(world, GreedyAllocator(), light_trace)
        assert metrics.completed == len(light_trace)
        assert metrics.dropped == 0

    def test_qant_completes_light_load(self, world, light_trace):
        __, metrics = run(world, QantAllocator(), light_trace)
        assert metrics.completed == len(light_trace)

    def test_outcomes_are_causally_ordered(self, world, light_trace):
        __, metrics = run(world, GreedyAllocator(), light_trace)
        for outcome in metrics.outcomes:
            assert outcome.arrival_ms <= outcome.assigned_ms
            assert outcome.assigned_ms <= outcome.start_ms + 1e-9
            assert outcome.start_ms < outcome.finish_ms

    def test_assignments_only_to_eligible_nodes(self, world, light_trace):
        federation, metrics = run(world, RandomAllocator(), light_trace)
        for outcome in metrics.outcomes:
            node = federation.nodes[outcome.node_id]
            assert node.can_evaluate(outcome.class_index)

    def test_node_execution_is_serial(self, world, light_trace):
        __, metrics = run(world, GreedyAllocator(), light_trace)
        by_node = {}
        for outcome in metrics.outcomes:
            by_node.setdefault(outcome.node_id, []).append(outcome)
        assert len(by_node) > 1
        for outcomes in by_node.values():
            outcomes.sort(key=lambda o: o.start_ms)
            for earlier, later in zip(outcomes, outcomes[1:]):
                assert later.start_ms >= earlier.finish_ms - 1e-9

    def test_equal_finishes_record_in_enqueue_order(self):
        """Two queries finish at the same millisecond on different nodes;
        the later-enqueued one has the lower qid.  Outcomes are recorded
        in enqueue order, as completion events would have fired."""
        federation = _scripted_federation(
            costs=(90.0, 95.0), routes={0: (0, 10.0), 1: (1, 5.0)}
        )
        metrics = federation.run(
            [WorkloadEvent(0.0, 0, 0), WorkloadEvent(0.0, 0, 0)]
        )
        assert [(o.qid, o.finish_ms) for o in metrics.outcomes] == [
            (1, 100.0),
            (0, 100.0),
        ]

    @pytest.mark.parametrize("mechanism", [GreedyAllocator, QantAllocator])
    def test_offered_is_completed_dropped_or_in_flight(self, world, mechanism):
        """A query assigned but still queued when the drain ends is
        neither completed nor dropped: it is counted as in flight."""
        trace = sinusoid_trace_for_load(
            world, load_fraction=1.5, horizon_ms=10_000.0, seed=5
        )
        __, metrics = run(world, mechanism(), trace, drain_ms=2_000.0)
        assert len(trace) == (
            metrics.completed + metrics.dropped + metrics.in_flight
        )
        if mechanism is GreedyAllocator:
            # Greedy never refuses: its overload backlog is all in flight.
            assert metrics.dropped == 0
            assert metrics.in_flight > 0

    def test_messages_counted(self, world, light_trace):
        federation, __ = run(world, GreedyAllocator(), light_trace)
        assert federation.network.messages_sent > 0

    def test_deterministic_given_seed(self, world, light_trace):
        __, first = run(world, GreedyAllocator(), light_trace)
        __, second = run(world, GreedyAllocator(), light_trace)
        assert first.mean_response_ms() == second.mean_response_ms()

    def test_empty_trace_rejected(self, world):
        federation = build_federation(
            world.specs,
            world.placement,
            world.classes,
            world.cost_model,
            GreedyAllocator(),
            FederationConfig(),
        )
        with pytest.raises(ValueError):
            federation.run([])

    @pytest.mark.parametrize("mechanism", [QantAllocator, GreedyAllocator])
    def test_unsorted_trace_runs_as_its_stable_sort(
        self, world, light_trace, mechanism
    ):
        """A trace out of time order is run as its stable sort: the same
        outcomes and counters, same-time arrivals batched as one tick."""
        ticked = [
            WorkloadEvent(
                math.floor(e.time_ms / 50.0) * 50.0, e.class_index, e.origin_node
            )
            for e in light_trace
        ]
        shuffled = list(ticked)
        random.Random(9).shuffle(shuffled)
        ordered = sorted(shuffled, key=lambda e: e.time_ms)
        assert shuffled != ordered
        __, from_shuffled = run(world, mechanism(), shuffled)
        __, from_ordered = run(world, mechanism(), ordered)
        assert from_shuffled.outcome_digest() == from_ordered.outcome_digest()
        assert dict(from_shuffled.counters) == dict(from_ordered.counters)
        assert from_shuffled.counters["max_batch"] >= 2

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_trace_time_rejected(self, world, light_trace, bad):
        """A NaN arrival used to fire, set the clock to NaN and corrupt
        the rest of the run silently; now nothing runs at all."""
        federation = build_federation(
            world.specs,
            world.placement,
            world.classes,
            world.cost_model,
            GreedyAllocator(),
            FederationConfig(),
        )
        trace = list(light_trace)
        trace.insert(7, WorkloadEvent(bad, 0, 0))
        with pytest.raises(ValueError, match="finite"):
            federation.run(trace)
        assert federation.simulator.events_processed == 0


class TestOverloadBehaviour:
    def test_qant_resubmissions_happen_under_overload(self, world):
        trace = sinusoid_trace_for_load(
            world, load_fraction=2.5, horizon_ms=15_000.0, seed=6
        )
        __, metrics = run(
            world, QantAllocator(), trace, drain_ms=120_000.0
        )
        assert metrics.mean_resubmissions() > 0

    def test_short_drain_drops_backlog(self, world):
        trace = sinusoid_trace_for_load(
            world, load_fraction=3.0, horizon_ms=10_000.0, seed=7
        )
        __, metrics = run(
            world,
            QantAllocator(activation_threshold=None, queue_allowance_ms=300.0),
            trace,
            drain_ms=0.0,
        )
        assert metrics.dropped > 0

    @pytest.mark.parametrize(
        "mechanism, faults",
        [
            (GreedyAllocator, None),
            (QantAllocator, None),
            (QantAllocator, FaultSpec(drop_probability=0.2, fault_seed=3)),
        ],
    )
    def test_infinite_drain_runs_to_empty(self, world, mechanism, faults):
        """``drain_ms=inf`` runs until every query has finished (under
        message faults, until no retry is backing off either), and scores
        exactly what a finite drain long enough to empty scores."""
        trace = sinusoid_trace_for_load(
            world, load_fraction=2.5, horizon_ms=10_000.0, seed=8
        )
        __, drained = run(
            world, mechanism(), trace, drain_ms=math.inf, faults=faults
        )
        assert drained.completed == len(trace)
        assert drained.dropped == drained.in_flight == 0
        assert drained.censored_mean_response_ms() == (
            drained.mean_response_ms()
        )
        __, long = run(
            world, mechanism(), trace, drain_ms=600_000.0, faults=faults
        )
        assert long.completed == len(trace)
        assert drained.outcomes == long.outcomes

    def test_infinite_drain_past_the_cap_names_the_pending(
        self, world, monkeypatch
    ):
        # No supply anywhere, always enforced: every query is refused for
        # ever, so the run can never empty.
        monkeypatch.setattr(federation_module, "DRAIN_CAP_MS", 5_000.0)
        trace = sinusoid_trace_for_load(
            world, load_fraction=1.0, horizon_ms=2_000.0, seed=8
        )
        allocator = QantAllocator(
            activation_threshold=None, queue_allowance_ms=0.0
        )
        with pytest.raises(DrainCapExceeded, match="%d queries" % len(trace)):
            run(world, allocator, trace, drain_ms=math.inf)

    def test_greedy_never_refuses(self, world):
        trace = sinusoid_trace_for_load(
            world, load_fraction=2.5, horizon_ms=10_000.0, seed=8
        )
        __, metrics = run(world, GreedyAllocator(), trace, drain_ms=300_000.0)
        assert metrics.mean_resubmissions() == 0.0
        assert metrics.dropped == 0


class TestBuildValidation:
    def test_spec_count_must_match_placement(self, world):
        with pytest.raises(ValueError):
            build_federation(
                world.specs[:-1],
                world.placement,
                world.classes,
                world.cost_model,
                GreedyAllocator(),
                FederationConfig(),
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FederationConfig(period_ms=0.0)
        with pytest.raises(ValueError):
            FederationConfig(drain_ms=-1.0)
        # NaN passes a `< 0` test, and a NaN drain scored nothing.
        with pytest.raises(ValueError):
            FederationConfig(drain_ms=math.nan)
        FederationConfig(drain_ms=math.inf)
