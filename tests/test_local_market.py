"""The message-level market, in process: SQLite nodes behind the protocol.

The paper's client-server conversation (Section 3.3) is written once at
message level: ``DbmsFederation.send`` / ``negotiate`` on the client's
side, ``SqliteServerNode.handle`` on the server's, every leg through the
codec.  These tests pin the node's half to the paper listing (a twin
``QantPricingAgent`` fed the same script), the client to the codec and
the winner rule, and the packages to their import budgets.

The markets here are deterministic: a node's estimates are its EXPLAIN
costs (no history calibration, which learns from wall-clock times), and
its worker is *held*, so every assigned query stays queued and the
backlog is exactly the sum of what was charged until the test lets go.
"""

import ast
import contextlib
import pathlib
import queue
import subprocess
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
import repro.dbms.federation as wire
from repro.catalog import Relation
from repro.core import QantParameters, QantPricingAgent
from repro.core.qant import DEFAULT_ACTIVATION_THRESHOLD
from repro.dbms import DbmsFederation, FederationTimeout, SqliteServerNode
from repro.protocol import (
    AssignQuery,
    BidRequest,
    PeriodTick,
    ProtocolError,
    Quote,
    Refusal,
    decode,
    encode,
)
from repro.query import PerfectEstimator, QueryClass

CLASSES = (
    QueryClass(index=0, relation_ids=(0, 1), selectivity=0.4),
    QueryClass(index=1, relation_ids=(1, 2), selectivity=0.3),
    QueryClass(index=2, relation_ids=(0, 2), selectivity=0.5),
)
CLIENT = DbmsFederation.CLIENT
LAMBDA = QantParameters().adjustment


def period_of(node, costs):
    """A period length worth ``costs`` of the node's dearest query."""
    return costs * max(
        node.estimate_ms(qc) for qc in CLASSES if node.holds(qc.relation_ids)
    )


@contextlib.contextmanager
def market(
    num_nodes, parameters=None, period_costs=0.0, slowdown=1.0,
    relations=range(3),
):
    """``num_nodes`` equal nodes holding ``relations`` (every class by
    default), market open, workers held.  Yields ``(nodes, executed,
    release)``: ``release()`` lets the workers go, and ``executed`` then
    receives every assigned qid."""
    nodes = [
        SqliteServerNode(node_id=i, slowdown=slowdown, rows_per_mb=1000.0)
        for i in range(num_nodes)
    ]
    gate = threading.Event()
    executed = queue.Queue()
    try:
        parked = []
        for node in nodes:
            node.estimator = PerfectEstimator()
            for rid in relations:
                node.load_relation(Relation(rid=rid, name="r%d" % rid, size_mb=0.05))
            flag = threading.Event()
            parked.append(flag)
            node.submit(
                -1,
                CLASSES[0],
                0,
                lambda nid, result, flag=flag: (flag.set(), gate.wait(timeout=60.0)),
            )
        assert all(flag.wait(timeout=10.0) for flag in parked)
        for node in nodes:
            node.open_market(
                CLASSES,
                lambda nid, result: executed.put(result.qid),
                parameters,
                period_of(node, period_costs),
            )
        yield nodes, executed, gate.set
    finally:
        gate.set()
        for node in nodes:
            node.close()


def bid(qid, class_index, attempt=0):
    return BidRequest(qid, class_index, CLIENT, attempt)


class TestMarketNode:
    """``handle`` is the paper listing (p. 270) behind three messages."""

    def test_quotes_then_refuses_when_sold_out(self):
        """Same requests to the node and to a twin agent: same offers,
        prices and remaining supply, reply by reply."""
        with market(1, QantParameters(), period_costs=10.0) as (nodes, __, __):
            node = nodes[0]
            twin = QantPricingAgent(
                node.supply_set(period_of(node, 10.0)), QantParameters()
            )
            twin.begin_period()
            assert twin.planned_supply == node.agent.planned_supply
            assert twin.supply_left(0) >= 1
            offered_without_supply = refused = 0
            for qid in range(40):
                sold_out = node.agent.supply_left(0) < 1
                before = node.agent.prices[0]
                reply = node.handle(bid(qid, 0))
                assert isinstance(reply, (Quote, Refusal))
                assert isinstance(reply, Quote) == twin.quote(
                    0, DEFAULT_ACTIVATION_THRESHOLD
                )
                if sold_out:
                    # A trading failure raises the price by exactly lambda,
                    # whether or not the node then offers.
                    assert node.agent.prices[0] == before * (1.0 + LAMBDA)
                else:
                    assert node.agent.prices[0] == before
                if isinstance(reply, Quote):
                    offered_without_supply += sold_out
                    # Quotes do not consume supply; assignments do.
                    assert node.agent.supply_left(0) == twin.supply_left(0)
                    node.handle(AssignQuery(qid, node.node_id, 0))
                    if twin.supply_left(0) >= 1:
                        twin.accept(0)
                else:
                    refused += 1
                    # Only a node whose prices signal overload enforces
                    # its supply vector (Section 5.1).
                    assert node.agent.max_price >= DEFAULT_ACTIVATION_THRESHOLD
                assert node.agent.prices == twin.prices
                assert node.agent.remaining_supply == twin.remaining_supply
            assert offered_without_supply > 0 and refused > 0

    def test_period_tick_decays_unsold_prices_and_resolves_supply(self):
        with market(1, QantParameters(), period_costs=10.0) as (nodes, __, __):
            node = nodes[0]
            period_ms = period_of(node, 10.0)
            twin = QantPricingAgent(node.supply_set(period_ms), QantParameters())
            twin.begin_period()
            node.handle(AssignQuery(0, node.node_id, 0))
            twin.accept(0)
            prices = node.agent.prices
            unsold = node.agent.remaining_supply
            assert all(0 < s * LAMBDA < 1 for s in unsold)
            assert node.handle(PeriodTick(1, period_ms)) is None
            # Steps 12-14: p -= s * lambda * p for every class with unsold s.
            for k, s in enumerate(unsold):
                assert node.agent.prices[k] == prices[k] * (1.0 - s * LAMBDA)
            # ... then eq. 4 over what the backlog leaves of the period.
            twin.end_period()
            twin.rebind_supply_set(node.supply_set(period_ms))
            twin.begin_period()
            assert node.agent.prices == twin.prices
            assert node.agent.remaining_supply == twin.remaining_supply
            assert node.agent.supply_set.capacity_ms == pytest.approx(
                period_of(node, 10.0 + 2.0) - node.backlog_ms
            )

    def test_quote_estimates_backlog_plus_cost(self):
        with market(1) as (nodes, executed, release):
            node = nodes[0]
            first = node.handle(bid(1, 1))
            assert first.estimated_completion_ms == node.estimate_ms(CLASSES[1])
            node.handle(AssignQuery(1, node.node_id, 1))
            node.handle(AssignQuery(2, node.node_id, 2))
            charged = node.estimate_ms(CLASSES[1]) + node.estimate_ms(CLASSES[2])
            assert node.backlog_ms == charged
            second = node.handle(bid(3, 0))
            assert second == Quote(
                3, node.node_id, 0, charged + node.estimate_ms(CLASSES[0])
            )
            # The completions credit exactly what was charged, whatever
            # the executions really took.
            release()
            assert sorted(executed.get(timeout=10.0) for __ in range(2)) == [1, 2]
            assert node.backlog_ms == 0.0

    def test_a_class_the_node_does_not_hold_is_refused(self):
        with market(1) as (nodes, __, __):
            for index in (-1, 3, 99):
                assert nodes[0].handle(bid(1, index)) == Refusal(1, 0, index)

    def test_an_assignment_of_a_class_not_held_is_refused(self):
        """Holding relations 0 and 1 only, the node holds class 0 alone:
        an assignment of any other class (held elsewhere, out of range or
        negative) is a ``Refusal`` that charges, queues and pays
        nothing."""
        with market(1, QantParameters(), 10.0, relations=(0, 1)) as (
            nodes, __, __,
        ):
            node = nodes[0]
            supply = node.agent.remaining_supply
            for index in (1, 2, 3, -1):
                reply = node.handle(AssignQuery(7, 0, index))
                assert reply == Refusal(7, 0, index)
            assert node.backlog_ms == 0.0
            assert node.agent.remaining_supply == supply
            assert node.handle(AssignQuery(8, 0, 0)) is None
            assert node.backlog_ms > 0.0


_INTS = st.integers()
_FLOATS = st.floats()


_MESSAGES = st.one_of(
    st.builds(BidRequest, _INTS, _INTS, _INTS, _INTS),
    st.builds(Quote, _INTS, _INTS, _INTS, _FLOATS),
    st.builds(Refusal, _INTS, _INTS, _INTS),
    st.builds(AssignQuery, _INTS, _INTS, st.one_of(_INTS, st.integers(-1, 3))),
    st.builds(PeriodTick, _INTS, _FLOATS),
)


def test_any_wire_message_gets_a_reply_or_a_codec_error():
    """Whatever a peer sends — every message type, any field values — a
    node holding one class of three answers with a message or ``None``;
    only the codec may refuse it first, with a ``ProtocolError``."""
    with market(1, QantParameters(), 10.0, relations=(0, 1)) as (
        nodes, __, __,
    ):
        node = nodes[0]

        @settings(max_examples=300, deadline=None)
        @given(_MESSAGES)
        @example(AssignQuery(1, 0, 1))
        @example(PeriodTick(0, 1.7976931348623157e308))
        def answers(message):
            try:
                wire_message = decode(encode(message))
            except ProtocolError:
                return
            reply = node.handle(wire_message)
            assert reply is None or isinstance(reply, (Quote, Refusal))

        answers()
        # The ``Infinity`` literal a conforming encoder never writes is
        # the codec's to refuse; it never reaches the node.
        payload = encode(PeriodTick(0, 0.5)).replace("0.5", "Infinity")
        with pytest.raises(ProtocolError, match="Infinity"):
            decode(payload)
        assert isinstance(node.handle(bid(0, 0)), Quote)


def _run_session(nodes, num_queries, tick_every=None, period_ms=0.0):
    """Allocate a round-robin class stream through the federation's
    client; returns the winner of every query."""
    ids = tuple(node.node_id for node in nodes)
    federation = DbmsFederation(nodes, CLASSES, probe_latency_ms=0.0)
    winners = []
    for qid in range(num_queries):
        if tick_every and qid and qid % tick_every == 0:
            federation.send(PeriodTick(qid // tick_every, period_ms), ids)
        winner = federation.negotiate(bid(qid, qid % len(CLASSES)), ids)
        assert winner is not None
        winners.append(winner)
    return winners


class TestFederationDriver:
    """``DbmsFederation.run_workload`` over held nodes."""

    def test_refused_queries_re_enter_on_the_next_period(self):
        """Held workers on slow nodes (2 ms a query, 4 ms periods): the
        backlog eats the supply, prices cross the threshold, every node
        refuses.  Once the workers run again the backlog drains and each
        tick re-solves supply; the waiting queries are placed with
        ``resubmissions >= 1`` and none is lost."""
        with market(2, slowdown=20.0) as (nodes, __, release):
            federation = DbmsFederation(nodes, CLASSES, probe_latency_ms=0.0)
            threading.Timer(0.3, release).start()
            result = federation.run_workload(
                "qa-nt", num_queries=80, mean_interarrival_ms=0.5, period_ms=4.0
            )
            assert len(result.outcomes) == 80 and result.unserved == 0
            assert sorted(o.qid for o in result.outcomes) == list(range(80))
            assert max(o.resubmissions for o in result.outcomes) >= 1
            assert [node.backlog_ms for node in nodes] == [0.0, 0.0]

    def test_stalled_nodes_fail_by_name(self):
        """Neither warm-up nor the drain waits on a stuck worker forever."""
        with market(2) as (nodes, __, __):
            federation = DbmsFederation(nodes, CLASSES, probe_latency_ms=0.0)
            federation.DEADLINE_S = 0.2
            with pytest.raises(FederationTimeout, match="warm_up: 0 of 6"):
                federation.warm_up()
            with pytest.raises(FederationTimeout, match="run_workload: 3 "):
                federation.run_workload(
                    "greedy", num_queries=3, mean_interarrival_ms=1.0
                )


class TestLocalMarketDemo:
    """The whole conversation end to end (the class keeps the name of the
    asyncio demo whose cases it took over)."""

    def test_allocates_100_queries_across_4_nodes(self, monkeypatch):
        """Greedy nodes, and every leg through the codec."""
        encoded, decoded = [], []

        def encode(message):
            encoded.append(message)
            return wire_encode(message)

        def decode(payload):
            decoded.append(wire_decode(payload))
            return decoded[-1]

        wire_encode, wire_decode = wire.encode, wire.decode
        monkeypatch.setattr(wire, "encode", encode)
        monkeypatch.setattr(wire, "decode", decode)
        with market(4) as (nodes, executed, release):
            winners = _run_session(nodes, 120)
            assert len(winners) == 120 and set(winners) == {0, 1, 2, 3}
            # Per query: one bid encoded once and decoded by four nodes,
            # four quotes and one assignment each encoded and decoded.
            assert len(encoded) == 120 * (1 + 4 + 1)
            assert len(decoded) == 120 * (4 + 4 + 1)
            seen = {type(message) for message in decoded}
            assert seen == {BidRequest, Quote, AssignQuery}
            assert all(node.backlog_ms > 0.0 for node in nodes)
            release()
            for __ in range(120):
                executed.get(timeout=30.0)
            assert [node.backlog_ms for node in nodes] == [0.0] * 4

    def test_scales_to_more_nodes_and_classes(self):
        """QA-NT nodes with room to spare, a period tick every 40."""
        with market(6, QantParameters(), period_costs=1e4) as (nodes, __, __):
            winners = _run_session(nodes, 150, 40, 10_000.0)
            assert len(winners) == 150 and len(set(winners)) == 6

    def test_session_drives_local_transport_directly(self):
        with market(4) as (nodes, __, __):
            ids = (0, 1, 2, 3)
            federation = DbmsFederation(nodes, CLASSES, probe_latency_ms=0.0)
            nodes[0].handle(AssignQuery(100, 0, 0))  # node 0 is busy
            quotes = federation.send(bid(0, 1), ids)
            assert [type(q) for q in quotes] == [Quote] * 4
            winner = federation.negotiate(bid(0, 1), ids)
            # Earliest estimated completion, ties to the lowest id.
            best = min(quotes, key=lambda q: (q.estimated_completion_ms, q.node_id))
            assert winner == best.node_id != 0
            assert nodes[winner].backlog_ms > 0.0

    def test_winner_rule_earliest_completion_lowest_id(self):
        """Two equal nodes quote equal estimates: the lower id wins,
        whatever order the peers are asked in; once it holds the query,
        the other node's completion is the earlier one."""
        with market(2) as (nodes, __, __):
            federation = DbmsFederation(nodes, CLASSES, probe_latency_ms=0.0)
            quotes = federation.send(bid(0, 1), (1, 0))
            assert [q.node_id for q in quotes] == [1, 0]
            assert len({q.estimated_completion_ms for q in quotes}) == 1
            assert federation.negotiate(bid(0, 1), (1, 0)) == 0
            assert federation.negotiate(bid(1, 1), (0, 1)) == 1

    def test_protocol_package_never_imports_the_simulator(self):
        """Import budgets, in one clean interpreter, strictest first:
        the protocol is stdlib-only and asyncio-free; the SQLite
        federation needs the pricing core but no simulator; the shard
        engine never pays for asyncio."""
        script = (
            "import sys\n"
            "def loaded(*prefixes):\n"
            "    return sorted(m for m in sys.modules if m.startswith(prefixes))\n"
            "import repro.protocol\n"
            "assert not loaded('repro.sim', 'repro.core', 'repro.allocation',\n"
            "                  'asyncio'), loaded('repro.', 'asyncio')\n"
            "import repro.dbms\n"
            "assert not loaded('repro.sim', 'repro.allocation', 'asyncio'), (\n"
            "    loaded('repro.', 'asyncio'))\n"
            "import repro.sim.shards\n"
            "assert not loaded('asyncio'), loaded('asyncio')\n"
            "print('clean')\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.startswith("clean")

    def test_simulator_never_drives_the_listing_agents(self):
        """Usage budget: no module under ``repro.allocation`` or
        ``repro.sim``, nor ``repro.core.period_engine``, references
        ``QantPricingAgent``, reaches the paper listing's agent calls or
        reads an agent's private lists, so the simulator's market is the
        period engine's arrays alone (the listing serves the SQLite nodes
        and the tests).  Attribute references count, not only calls, so a
        bound method stashed in a local is caught too; a listening
        socket's ``accept`` is not an agent's, and an object's own field
        (``self._credit`` of a shard plane) is not an agent's list."""
        listing = {
            "quote", "accept", "begin_period", "end_period",
            "rebind_supply_set",
        }
        private = {
            "_price_values", "_remaining", "_credit", "_enforce_locked_at",
        }

        def offends(node):
            if isinstance(node, ast.Name):
                return node.id == "QantPricingAgent"
            if isinstance(node, ast.alias):
                return "QantPricingAgent" in (node.name, node.asname)
            if not isinstance(node, ast.Attribute):
                return False
            if node.attr == "QantPricingAgent":
                return True
            if node.attr in listing:
                return ast.unparse(node) != "listener.accept"
            return node.attr in private and not (
                isinstance(node.value, ast.Name) and node.value.id == "self"
            )

        root = pathlib.Path(repro.__file__).parent
        paths = [root / "core" / "period_engine.py"]
        for package in ("allocation", "sim"):
            paths += sorted((root / package).rglob("*.py"))
        found = []
        for path in paths:
            tree = ast.parse(path.read_text(), str(path))
            found.extend(
                "%s:%d %s"
                % (path.name, getattr(node, "lineno", 0), ast.unparse(node))
                for node in ast.walk(tree)
                if offends(node)
            )
        assert not found, found
