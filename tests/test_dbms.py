"""Tests for the real-DBMS substrate (SQLite nodes + the real-time client).

The market conversation between them is pinned in test_local_market.py.
"""

import threading
import time
from dataclasses import replace

import pytest

from repro.catalog import Relation
from repro.dbms import DbmsFederation, SqliteServerNode
from repro.experiments.runner import run_single
from repro.experiments.spec import REGISTRY, ScalePreset
from repro.query.model import QueryClass
from repro.query.sqlgen import plan_signature


class _ExplainCounter:
    """A connection proxy appending every EXPLAIN it executes to a list."""

    def __init__(self, conn, explains):
        self._conn = conn
        self._explains = explains

    def execute(self, sql, *args):
        if sql.startswith("EXPLAIN"):
            self._explains.append(sql)
        return self._conn.execute(sql, *args)

    def __getattr__(self, name):
        return getattr(self._conn, name)


@pytest.fixture()
def node():
    n = SqliteServerNode(node_id=0, rows_per_mb=1000.0)
    yield n
    n.close()


def relation(rid=0, size_mb=0.1):
    return Relation(rid=rid, name="r%d" % rid, size_mb=size_mb)


class TestSqliteServerNode:
    def test_load_relation_creates_rows(self, node):
        node.load_relation(relation())
        assert node.holds([0])
        assert node.relation_ids == [0]

    def test_holds_requires_all(self, node):
        node.load_relation(relation(0))
        assert not node.holds([0, 1])

    def test_execute_query_returns_result(self, node):
        node.load_relation(relation(0))
        node.load_relation(relation(1))
        qc = QueryClass(index=0, relation_ids=(0, 1), selectivity=0.4)
        results = []
        node.submit(7, qc, 3, lambda nid, r: results.append((nid, r)))
        deadline = time.monotonic() + 10.0
        while not results and time.monotonic() < deadline:
            time.sleep(0.01)
        assert results
        nid, result = results[0]
        assert nid == 0
        assert result.qid == 7
        assert result.rows >= 0
        assert result.finished_s >= result.started_s >= result.submitted_s

    def test_optimizer_cost_positive(self, node):
        node.load_relation(relation(0))
        qc = QueryClass(index=0, relation_ids=(0,))
        assert node.optimizer_cost_ms(qc) > 0

    def test_slowdown_scales_cost_estimate(self):
        fast = SqliteServerNode(node_id=0, slowdown=1.0)
        slow = SqliteServerNode(node_id=1, slowdown=3.0)
        try:
            fast.load_relation(relation(0))
            slow.load_relation(relation(0))
            qc = QueryClass(index=0, relation_ids=(0,))
            assert slow.optimizer_cost_ms(qc) == pytest.approx(
                3 * fast.optimizer_cost_ms(qc), rel=0.01
            )
        finally:
            fast.close()
            slow.close()

    def test_optimizer_cost_explains_once_per_signature(self, node):
        # SQLite's trace hook does not report EXPLAIN statements, so the
        # count comes from a proxy over the node's connection.
        explains = []
        node._conn = _ExplainCounter(node._conn, explains)
        node.load_relation(relation(0))
        node.load_relation(relation(1))
        one = QueryClass(index=0, relation_ids=(0,))
        join = QueryClass(index=1, relation_ids=(0, 1))
        costs = [node.estimate_ms(qc) for qc in (one, join, one, join, one)]
        assert len(explains) == 2
        assert costs[0::2] == [costs[0]] * 3 and costs[1::2] == [costs[1]] * 2
        # A schema change drops the cache: the next estimate re-plans.
        node.load_relation(relation(2))
        node.estimate_ms(one)
        assert len(explains) == 3

    def test_cached_estimate_does_not_wait_for_the_connection(self, node):
        node.load_relation(relation(0))
        qc = QueryClass(index=0, relation_ids=(0,))
        expected = node.estimate_ms(qc)
        estimates = []
        # The worker holds the connection lock while a query executes.
        with node._conn_lock:
            bidder = threading.Thread(
                target=lambda: estimates.append(node.estimate_ms(qc))
            )
            bidder.start()
            bidder.join(timeout=2.0)
            assert not bidder.is_alive()
        assert estimates == [expected]

    def test_history_calibration_learns(self, node):
        node.load_relation(relation(0))
        qc = QueryClass(index=0, relation_ids=(0,))
        done = []
        node.submit(0, qc, 0, lambda nid, r: done.append(r))
        deadline = time.monotonic() + 10.0
        while not done and time.monotonic() < deadline:
            time.sleep(0.01)
        assert node.estimator.observations_of(plan_signature(qc)) == 1

    def test_view_creation(self, node):
        node.load_relation(relation(0))
        node.create_view("view_000", 0, 500)

    def test_view_requires_loaded_relation(self, node):
        with pytest.raises(KeyError):
            node.create_view("view_000", 9, 500)

    def test_submit_after_close_rejected(self):
        n = SqliteServerNode(node_id=0)
        n.close()
        qc = QueryClass(index=0, relation_ids=(0,))
        with pytest.raises(RuntimeError):
            n.submit(0, qc, 0, lambda nid, r: None)

    def test_invalid_slowdown_rejected(self):
        with pytest.raises(ValueError):
            SqliteServerNode(node_id=0, slowdown=0.5)


@pytest.fixture(scope="module")
def built_federation():
    federation, classes = DbmsFederation.build(
        num_nodes=3,
        num_tables=8,
        num_views=6,
        num_classes=5,
        table_size_mb=(0.05, 0.15),
        seed=11,
    )
    yield federation, classes
    federation.close()


class TestDbmsFederation:
    def test_build_shape(self, built_federation):
        federation, classes = built_federation
        assert len(federation.nodes) == 3
        assert len(classes) == 5
        assert federation.classes == classes

    def test_every_class_has_candidates(self, built_federation):
        federation, classes = built_federation
        for qc in classes:
            candidates = federation.candidates(qc.index)
            assert candidates
            for nid in candidates:
                assert federation.nodes[nid].holds(qc.relation_ids)

    def test_unknown_mechanism_rejected(self, built_federation):
        federation, __ = built_federation
        with pytest.raises(ValueError):
            federation.run_workload("magic", num_queries=1)

    def test_greedy_workload_completes(self):
        federation, __ = DbmsFederation.build(
            num_nodes=2,
            num_tables=6,
            num_views=4,
            num_classes=4,
            table_size_mb=(0.05, 0.1),
            seed=12,
        )
        try:
            federation.warm_up()
            # Warm-up returns only once every candidate has run every class.
            for qc in federation.classes:
                for nid in federation.candidates(qc.index):
                    estimator = federation.nodes[nid].estimator
                    assert estimator.observations_of(plan_signature(qc)) >= 1
            result = federation.run_workload(
                "greedy", num_queries=15, mean_interarrival_ms=5.0, seed=13
            )
            assert len(result.outcomes) == 15
            assert result.unserved == 0
            assert result.mean_total_ms >= result.mean_assign_ms > 0
            # A completion credits what the assignment charged, so a
            # drained node owes nothing, however wrong its estimates were.
            assert all(n.backlog_ms == 0.0 for n in federation.nodes.values())
        finally:
            federation.close()

    def test_qant_workload_completes(self):
        federation, __ = DbmsFederation.build(
            num_nodes=2,
            num_tables=6,
            num_views=4,
            num_classes=4,
            table_size_mb=(0.05, 0.1),
            seed=12,
        )
        try:
            federation.warm_up()
            result = federation.run_workload(
                "qa-nt",
                num_queries=15,
                mean_interarrival_ms=5.0,
                period_ms=100.0,
                seed=13,
            )
            assert len(result.outcomes) == 15
            assert result.unserved == 0
            assert result.mean_total_ms >= result.mean_assign_ms > 0
            assert all(n.backlog_ms == 0.0 for n in federation.nodes.values())
        finally:
            federation.close()

    def test_outcomes_ordered_in_time(self):
        federation, __ = DbmsFederation.build(
            num_nodes=2,
            num_tables=4,
            num_views=2,
            num_classes=3,
            table_size_mb=(0.05, 0.1),
            seed=14,
        )
        try:
            result = federation.run_workload(
                "greedy", num_queries=10, mean_interarrival_ms=2.0, seed=15
            )
            for outcome in result.outcomes:
                assert outcome.finished_s >= outcome.assigned_s >= outcome.arrival_s
        finally:
            federation.close()

    def test_context_manager_closes(self):
        federation, __ = DbmsFederation.build(
            num_nodes=2, num_tables=4, num_views=0, num_classes=3, seed=16
        )
        with federation:
            pass
        qc = federation.classes[0]
        node = next(iter(federation.nodes.values()))
        with pytest.raises(RuntimeError):
            node.submit(0, qc, 0, lambda nid, r: None)


def test_registered_fig7_spec_runs_at_a_tiny_size():
    """`repro run fig7` with only the preset swapped: every (mechanism,
    inter-arrival) run serves all its queries."""
    sizes = {
        "num_queries": 12,
        "interarrivals_ms": (3.0, 5.0),
        "num_nodes": 3,
        "num_tables": 8,
        "num_views": 4,
        "num_classes": 5,
        "table_size_mb": (0.05, 0.1),
    }
    spec = replace(REGISTRY.get("fig7"), scales={"small": ScalePreset(fixed=sizes)})
    runs = run_single(spec, "small", seed=0).to_dict()["runs"]
    assert sorted((r["mechanism"], r["mean_interarrival_ms"]) for r in runs) == [
        ("greedy", 3.0), ("greedy", 5.0), ("qa-nt", 3.0), ("qa-nt", 5.0),
    ]
    for run in runs:
        assert run["queries"] == 12 and run["unserved"] == 0
        assert run["mean_total_ms"] >= run["mean_assign_ms"] > 0
