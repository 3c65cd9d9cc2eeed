"""Unit tests for repro.sim.network, repro.sim.node and repro.sim.metrics."""

import math

import numpy as np
import pytest

from repro.query import MachineSpec
from repro.query.model import Query
from repro.sim.engine import Simulator
from repro.sim.metrics import (
    OUTCOME_DTYPES,
    MetricsCollector,
    QueryOutcome,
    normalised_response_times,
)
from repro.sim.network import LatencyModel, Network
from repro.sim.node import SimulatedNode


class TestLatencyModel:
    """The model's bounds, as the network's round trips draw them."""

    def test_sample_within_bounds(self):
        # Each leg is base + jitter * U[0, 1), so a round trip lies in
        # [2 * base, 2 * (base + jitter)] on the scalar (< 8 peers), bulk
        # and batched paths alike.
        net = Network(Simulator(), LatencyModel(base_ms=1.0, jitter_ms=2.0))
        for num_peers in (1, 3, 8, 20):
            for __ in range(25):
                assert 2.0 <= net.round_trip_ms(num_peers) <= 6.0
        for delay in net.round_trip_ms_batch([1, 3, 8, 20] * 5):
            assert 2.0 <= delay <= 6.0

    def test_zero_jitter_is_deterministic(self):
        net = Network(Simulator(), LatencyModel(base_ms=0.7, jitter_ms=0.0))
        for num_peers in (1, 3, 8):
            assert net.round_trip_ms(num_peers) == 0.7 + 0.7
        assert net.round_trip_ms_batch([1, 8]) == [0.7 + 0.7] * 2

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel(base_ms=-1.0)


class TestNetwork:
    def test_round_trip_counts_two_messages_per_peer(self):
        sim = Simulator()
        net = Network(sim, LatencyModel(base_ms=1.0, jitter_ms=0.0))
        delay = net.round_trip_ms(3)
        assert net.messages_sent == 6
        assert delay == 2.0

    def test_round_trip_zero_peers(self):
        net = Network(Simulator())
        assert net.round_trip_ms(0) == 0.0
        assert net.messages_sent == 0


def make_node(sim, costs=(100.0, 200.0)):
    return SimulatedNode(
        node_id=0,
        spec=MachineSpec(),
        relations=frozenset({0}),
        class_costs_ms=list(costs),
        simulator=sim,
    )


def make_query(qid=0, class_index=0):
    return Query(qid=qid, class_index=class_index, origin_node=0, arrival_ms=0.0)


class TestSimulatedNode:
    def test_fifo_execution_times(self):
        sim = Simulator()
        node = make_node(sim)
        assert node.enqueue(make_query(0, 0)) == (0.0, 100.0)
        assert node.enqueue(make_query(1, 0)) == (100.0, 200.0)

    def test_cannot_evaluate_infinite_cost_class(self):
        sim = Simulator()
        node = make_node(sim, costs=(100.0, math.inf))
        assert node.can_evaluate(0)
        assert not node.can_evaluate(1)
        with pytest.raises(ValueError):
            node.execution_time_ms(1)

    def test_current_load_decreases_with_time(self):
        sim = Simulator()
        node = make_node(sim)
        node.enqueue(make_query())
        assert node.current_load_ms() == 100.0
        sim.schedule(40.0, lambda: None)
        sim.run()
        assert node.current_load_ms() == pytest.approx(60.0)

    def test_estimated_completion(self):
        sim = Simulator()
        node = make_node(sim)
        node.enqueue(make_query())
        assert node.estimated_completion_ms(0) == 200.0

    def test_queued_queries_count(self):
        sim = Simulator()
        node = make_node(sim)
        node.enqueue(make_query(0))
        node.enqueue(make_query(1))
        assert node.queued_queries() == 2
        sim.schedule(150.0, lambda: None)
        sim.run()
        assert node.queued_queries() == 1


def outcome(qid=0, arrival=0.0, assigned=1.0, start=2.0, finish=10.0, cls=0):
    return QueryOutcome(
        qid=qid,
        class_index=cls,
        origin_node=0,
        arrival_ms=arrival,
        assigned_ms=assigned,
        node_id=0,
        start_ms=start,
        finish_ms=finish,
    )


def collector(*outcomes, dropped=0, pairwise=False):
    """A collector whose outcome table holds ``outcomes``, in row order,
    written as one engine writes it (``pairwise``: the planes' sums)."""
    columns = [[o[n] for o in outcomes] for n in range(len(OUTCOME_DTYPES))]
    m = MetricsCollector()
    m.record_outcomes(columns, dropped=dropped, _pairwise_sum=pairwise)
    return m


class TestMetrics:
    def test_response_and_assign_times(self):
        o = outcome()
        assert o.response_ms == 10.0
        assert o.assign_ms == 1.0
        assert o.execution_ms == 8.0

    def test_mean_response(self):
        m = collector(outcome(finish=10.0), outcome(finish=20.0))
        assert m.mean_response_ms() == 15.0

    def test_empty_collector_returns_nan(self):
        assert math.isnan(MetricsCollector().mean_response_ms())

    def test_drop_counting(self):
        m = collector(dropped=5)
        assert m.dropped == 5
        assert m.completed == 0

    def test_bulk_exchange_record_is_the_scalar_left_to_right_sum(self):
        # Delays chosen so a compensated or pairwise sum would differ from
        # the plain running total in the last bits.
        delays = [0.1, 1e16, -1e16, 0.7, 1e-9, 3.3] * 7
        messages = list(range(len(delays)))
        assigned = [i % 3 == 0 for i in range(len(delays))]
        scalar, bulk = MetricsCollector(), MetricsCollector()
        for m in (scalar, bulk):
            m.record_exchange(2, 0.3, True)  # a non-zero running total
        for row in zip(messages, delays, assigned):
            scalar.record_exchange(*row)
        bulk.record_exchanges(messages, delays, assigned.count(False))
        assert bulk.negotiation_summary() == scalar.negotiation_summary()
        assert math.fsum([0.3] + delays) != scalar.counters["negotiation_delay_ms"]

    def test_each_writer_keeps_its_summation_program(self):
        # Responses whose pairwise and left-to-right sums differ in the
        # last bits: the event engine's mean is the running total in row
        # order, the planes' is numpy's pairwise sum, and both are pinned.
        responses = [0.1, 1e16, 0.7, 1e-9, 3.3, 2.5e15] * 7
        rows = [outcome(qid=i, finish=r) for i, r in enumerate(responses)]
        event, planes = collector(*rows), collector(*rows, pairwise=True)
        total = 0.0
        for response in responses:
            total += response
        assert event.mean_response_ms() == total / len(responses)
        pairwise = float(np.sum(responses)) / len(responses)
        assert planes.mean_response_ms() == pairwise
        assert event.mean_response_ms() != planes.mean_response_ms()

    def test_add_counters_rejects_an_unknown_name(self):
        m = MetricsCollector()
        # ``syncs`` was the old snapshot keyword of ``batch_syncs``.
        with pytest.raises(KeyError, match="no run counter named bogus, syncs"):
            m.add_counters(vector_exchanges=3, syncs=1, bogus=2)
        assert m.counters["vector_exchanges"] == 0
        with pytest.raises(TypeError):
            m.counters["vector_exchanges"] = 3

    def test_counters_keep_their_types_and_the_summaries_their_order(self):
        m = MetricsCollector()
        m.add_counters(fault_retries=2.0, partition_ms=3, batch_syncs=np.int64(4))
        assert type(m.counters["fault_retries"]) is int
        assert type(m.counters["partition_ms"]) is float
        assert type(m.counters["batch_syncs"]) is int
        assert list(m.fault_summary()) == [
            "timeouts",
            "lost_messages",
            "degraded_assignments",
            "fault_retries",
            "crash_count",
            "partition_ms",
        ]
        single = m.batch_summary()
        # The first shard counter brings in the whole shard group, after
        # the batch group and at its starting values.
        m.add_counters(shards=2, shard_imbalance=1.25)
        sharded = m.batch_summary()
        assert list(sharded)[: len(single)] == list(single)
        assert list(sharded)[len(single) :] == [
            "cross_shard_bids",
            "barrier_wait_ms",
            "shard_imbalance",
            "shards",
            "reconcile_barriers",
            "local_classes",
            "residual_classes",
            "closed_settled",
        ]
        assert (sharded["shards"], sharded["shard_imbalance"]) == (2.0, 1.25)
        assert sharded["closed_settled"] == sharded["reconcile_barriers"] == 0.0
        assert all(type(value) is float for value in sharded.values())

    def test_percentile(self):
        m = collector(*(outcome(finish=f) for f in (10.0, 20.0, 30.0, 40.0)))
        assert m.percentile_response_ms(0.0) == 10.0
        assert m.percentile_response_ms(1.0) == 40.0

    def test_percentile_bounds(self):
        with pytest.raises(ValueError):
            MetricsCollector().percentile_response_ms(1.5)

    def test_executed_per_period(self):
        m = collector(
            outcome(finish=100.0),
            outcome(finish=600.0),
            outcome(finish=600.0, cls=1),
        )
        counts = m.executed_per_period(500.0, 1000.0)
        assert counts == [1, 2]
        only_class0 = m.executed_per_period(500.0, 1000.0, class_index=0)
        assert only_class0 == [1, 1]

    def test_mean_response_by_class(self):
        m = collector(outcome(finish=10.0, cls=0), outcome(finish=30.0, cls=1))
        by_class = m.mean_response_by_class()
        assert by_class == {0: 10.0, 1: 30.0}

    def test_last_finish(self):
        m = collector(outcome(finish=42.0))
        assert m.last_finish_ms() == 42.0

    def test_normalised_response_times(self):
        base = collector(outcome(finish=10.0))
        other = collector(outcome(finish=20.0))
        normalised = normalised_response_times(base, {"x": other, "base": base})
        assert normalised == {"x": 2.0, "base": 1.0}

    def test_normalised_rejects_empty_baseline(self):
        with pytest.raises(ValueError):
            normalised_response_times(MetricsCollector(), {})
