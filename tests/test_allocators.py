"""Unit tests for repro.allocation (every mechanism's decision logic)."""

import math

import pytest

from repro.allocation import (
    BnqrdAllocator,
    GreedyAllocator,
    LeastImbalanceAllocator,
    MarkovAllocator,
    QantAllocator,
    RandomAllocator,
    RoundRobinAllocator,
    TwoRandomProbesAllocator,
    optimise_routing,
)
from repro.experiments.setups import two_query_world
from repro.query.model import Query
from repro.sim import FederationConfig, build_federation

INF = math.inf


def make_federation(allocator, num_nodes=8, seed=3):
    world = two_query_world(num_nodes=num_nodes, seed=seed)
    return build_federation(
        world.specs,
        world.placement,
        world.classes,
        world.cost_model,
        allocator,
        FederationConfig(seed=seed),
    )


def query(qid=0, class_index=0, origin=0):
    return Query(qid=qid, class_index=class_index, origin_node=origin, arrival_ms=0.0)


class TestBase:
    def test_unbound_allocator_has_no_context(self):
        allocator = GreedyAllocator()
        with pytest.raises(RuntimeError):
            allocator.context

    def test_rebinding_rejected(self):
        allocator = GreedyAllocator()
        make_federation(allocator)
        world = two_query_world(num_nodes=4, seed=1)
        with pytest.raises(RuntimeError):
            build_federation(
                world.specs,
                world.placement,
                world.classes,
                world.cost_model,
                allocator,
                FederationConfig(),
            )

    def test_no_candidates_refuses(self):
        allocator = GreedyAllocator()
        fed = make_federation(allocator)
        decision = allocator.assign(query(class_index=0, origin=0))
        assert decision.node_id is not None
        # A class no node can serve:
        fed.allocator.context.candidates_by_class[99] = ()
        assert allocator.assign(query(class_index=99)).node_id is None


class TestGreedy:
    def test_picks_min_estimated_completion(self):
        allocator = GreedyAllocator()
        fed = make_federation(allocator)
        decision = allocator.assign(query())
        nodes = fed.nodes
        candidates = allocator.context.candidates(0)
        best = min(candidates, key=lambda n: (nodes[n].estimated_completion_ms(0), n))
        assert decision.node_id == best

    def test_charges_messages_for_all_candidates(self):
        allocator = GreedyAllocator()
        make_federation(allocator)
        decision = allocator.assign(query())
        assert decision.messages == 2 * len(allocator.context.candidates(0))
        assert decision.delay_ms > 0

    def test_randomisation_spreads_choices(self):
        allocator = GreedyAllocator(randomisation=5.0)
        make_federation(allocator)
        chosen = {allocator.assign(query(qid=i)).node_id for i in range(40)}
        assert len(chosen) > 1

    def test_negative_randomisation_rejected(self):
        with pytest.raises(ValueError):
            GreedyAllocator(randomisation=-0.1)


class TestRandomAndRoundRobin:
    def test_random_stays_within_candidates(self):
        allocator = RandomAllocator()
        make_federation(allocator)
        candidates = set(allocator.context.candidates(1))
        for i in range(20):
            assert allocator.assign(query(qid=i, class_index=1)).node_id in candidates

    def test_round_robin_cycles(self):
        allocator = RoundRobinAllocator()
        make_federation(allocator)
        candidates = allocator.context.candidates(1)
        picks = [
            allocator.assign(query(qid=i, class_index=1, origin=0)).node_id
            for i in range(2 * len(candidates))
        ]
        # Every candidate visited exactly twice over two full cycles.
        assert sorted(picks) == sorted(list(candidates) * 2)

    def test_round_robin_origins_independent(self):
        allocator = RoundRobinAllocator()
        make_federation(allocator)
        a = [allocator.assign(query(qid=i, origin=0)).node_id for i in range(3)]
        b = [allocator.assign(query(qid=i, origin=1)).node_id for i in range(3)]
        # Both cycle over the same candidate ring (offsets may differ).
        assert set(a) <= set(allocator.context.candidates(0))
        assert set(b) <= set(allocator.context.candidates(0))


class TestTwoProbes:
    def test_picks_less_queued_probe(self):
        allocator = TwoRandomProbesAllocator()
        fed = make_federation(allocator)
        # Load one node heavily; the probe comparison must avoid it
        # whenever it is probed together with an idle node.
        target = allocator.context.candidates(0)[0]
        for i in range(10):
            fed.nodes[target].enqueue(query(qid=100 + i))
        for i in range(20):
            decision = allocator.assign(query(qid=i))
            if decision.node_id != target:
                break
        else:
            pytest.fail("two-probes never escaped the loaded node")

    def test_probes_cost_four_messages(self):
        allocator = TwoRandomProbesAllocator()
        make_federation(allocator)
        decision = allocator.assign(query())
        assert decision.messages == 4


class TestBnqrd:
    def test_routes_to_underloaded_node(self):
        allocator = BnqrdAllocator(refresh_ms=1.0)
        fed = make_federation(allocator)
        candidates = allocator.context.candidates(0)
        loaded = candidates[0]
        for i in range(5):
            fed.nodes[loaded].enqueue(query(qid=50 + i))
        decision = allocator.assign(query())
        assert decision.node_id != loaded

    def test_stale_cache_reused_within_refresh_window(self):
        allocator = BnqrdAllocator(refresh_ms=1e9)
        fed = make_federation(allocator)
        first = allocator.assign(query(qid=0))
        # Load the chosen node heavily; the stale coordinator still counts
        # its own routing, so it will not hammer the same node forever,
        # but it must not see the true loads either.
        assert allocator._cache_time is not None

    def test_bad_refresh_rejected(self):
        with pytest.raises(ValueError):
            BnqrdAllocator(refresh_ms=0.0)


class TestLeastImbalance:
    def test_balances_busy_time(self):
        allocator = LeastImbalanceAllocator()
        fed = make_federation(allocator)
        for i in range(12):
            decision = allocator.assign(query(qid=i))
            fed.nodes[decision.node_id].enqueue(query(qid=i))
        loads = [n.current_load_ms() for n in fed.nodes.values()]
        busy = [l for l in loads if l > 0]
        assert len(busy) > 1  # spread, not piled on one node


class TestMarkov:
    def test_optimise_routing_probabilities_sum_to_one(self):
        plan = optimise_routing(
            [0.001, 0.001],
            [[100.0, 200.0], [200.0, 100.0]],
        )
        for k in range(2):
            total = sum(plan[i][k] for i in range(2))
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_optimise_routing_prefers_cheap_nodes(self):
        plan = optimise_routing(
            [0.0001],
            [[100.0], [10_000.0]],
        )
        assert plan[0][0] > plan[1][0]

    def test_optimise_routing_respects_eligibility(self):
        plan = optimise_routing(
            [0.001],
            [[INF], [100.0]],
        )
        assert plan[0][0] == 0.0
        assert plan[1][0] == pytest.approx(1.0, abs=1e-6)

    def test_allocator_assigns_candidates_only(self):
        allocator = MarkovAllocator([0.001, 0.0005])
        make_federation(allocator)
        candidates = set(allocator.context.candidates(1))
        for i in range(20):
            assert (
                allocator.assign(query(qid=i, class_index=1)).node_id
                in candidates
            )

    def test_rate_length_mismatch_rejected(self):
        allocator = MarkovAllocator([0.001])  # world has 2 classes
        with pytest.raises(ValueError):
            make_federation(allocator)


class TestQant:
    def test_offers_accepted_consume_supply(self):
        allocator = QantAllocator(activation_threshold=None)
        make_federation(allocator)
        decision = allocator.assign(query())
        assert decision.node_id is not None

    def test_refuses_when_all_sold_out(self):
        # Zero allowance -> no supply anywhere -> every request refused
        # (with enforcement always on).
        allocator = QantAllocator(
            activation_threshold=None, queue_allowance_ms=0.0
        )
        make_federation(allocator)
        assert allocator.assign(query()).node_id is None

    def test_refusals_raise_prices(self):
        allocator = QantAllocator(
            activation_threshold=None, queue_allowance_ms=0.0
        )
        make_federation(allocator)
        before = [state[0][0] for __, state in allocator.market_state()]
        allocator.assign(query())
        after = [state[0][0] for __, state in allocator.market_state()]
        assert all(b > a for a, b in zip(before, after))

    def test_activation_threshold_accepts_below_threshold(self):
        # Same zero allowance, but nodes not yet signalling overload accept
        # anything feasible (Section 5.1 threshold rule).
        allocator = QantAllocator(
            activation_threshold=1e9, queue_allowance_ms=0.0
        )
        make_federation(allocator)
        assert allocator.assign(query()).node_id is not None

    def test_partial_adoption_only_builds_agents_for_adopters(self):
        allocator = QantAllocator(adopters={0, 1})
        make_federation(allocator)
        assert [nid for nid, __ in allocator.market_state()] == [0, 1]

    def test_period_start_replans(self):
        allocator = QantAllocator()
        fed = make_federation(allocator)
        planned_before = {
            nid: sum(state[3]) for nid, state in allocator.market_state()
        }
        # Load a node, then re-plan: its supply must shrink.
        nid = allocator.context.candidates(0)[0]
        for i in range(30):
            fed.nodes[nid].enqueue(query(qid=200 + i))
        allocator.on_period_start()
        assert (
            sum(dict(allocator.market_state())[nid][3])
            <= planned_before[nid]
        )
