"""The PR 8 global market as one plain program: the sharded engine's oracle.

Until PR 16 ``repro.sim.shards`` shipped a second engine whose
coordinator priced every request-for-bid exchange of the whole
federation against one set of arrays, tick by tick, with a flat list of
refused queries retried at every period boundary.  The plane engine that
replaced it is bit-identical to it by contract; this module is what that
contract is checked against now that the old engine is gone: the same
market with everything but the market removed — no shards, transport,
frames, codec, retry pools or saturated / closed short-circuits.  Every
pooled query runs the full exchange at every boundary, eq. 4 is solved
once over all nodes, and no exchange code is shared with
``repro.sim.shards`` or ``repro.allocation.market_tick``.

Custody chain to the deleted engine (``tests/golden/``):
``sharded_1000node_seed0.json``, recorded by it in PR 8, and
``coordinator_overloaded_zipf_seed0.json``, recorded from it on the
overloaded Zipf world (boundaries, retries, drops) just before removal.
"""

import itertools
import math
import operator
import random

import numpy as np

from repro.core.qant import QantParameters
from repro.sim import MetricsCollector, ShardedRunResult, derive_shard_seed

#: The federation defaults every sharded test runs at.
ACTIVATION_THRESHOLD, ALLOWANCE_FACTOR = 2.0, 2.0


def run_reference_market(world, trace, mechanism, config):
    """``trace`` through the global tick market; a :class:`ShardedRunResult`
    whose ``invariant_payload()`` and ``vector_exchanges`` are the oracle.

    Node ids are assumed dense from 0 (every world builder's layout).
    """
    qa = {"qa-nt": True, "greedy": False}[mechanism]
    params = QantParameters()
    factor = 1.0 + params.adjustment
    floor, cap = params.price_floor, params.price_cap
    classes = world.classes
    num_nodes, num_classes = len(world.placement.node_ids), len(classes)

    cost = np.full((num_nodes, num_classes), math.inf)
    lanes = {}  # class -> its bidders, ascending node id
    for qc in classes:
        lanes[qc.index] = np.array(
            sorted(qc.candidate_nodes(world.placement)), dtype=np.intp
        )
        for nid in lanes[qc.index]:
            cost[nid, qc.index] = world.cost_model.execution_time_ms(
                qc, world.specs[nid]
            )
    lane_cost = {k: cost[rows, k] for k, rows in lanes.items()}
    headroom = np.where(np.isinf(cost), 0.0, cost).max(axis=1)
    allowance = config.period_ms + ALLOWANCE_FACTOR * headroom
    # A class a node cannot evaluate keeps its initial price of 1.0.
    idle_price = np.where(np.isinf(cost).any(axis=1), 1.0, 0.0)

    price = {k: np.ones(len(rows)) for k, rows in lanes.items()}
    supply = {k: np.zeros(len(rows)) for k, rows in lanes.items()}
    credit = np.zeros((num_nodes, num_classes))
    top_price = np.ones(num_nodes)
    latched = np.zeros(num_nodes, dtype=bool)
    quoted = np.zeros(num_nodes)  # what bids are priced against
    clock = np.zeros(num_nodes)  # when each node's FIFO really frees
    delays = [
        random.Random(
            derive_shard_seed(config.seed, ("shard-node-latency", nid))
        )
        for nid in range(num_nodes)
    ]
    base, jitter = config.latency.base_ms, config.latency.jitter_ms
    outcomes = []
    exchanges = 0

    def exchange(k, now):
        """Def. 4 for one query: who offers, who wins (None: nobody)."""
        left, p, who = supply[k], price[k], lanes[k]
        offers = left >= 1.0
        if qa:
            out = np.flatnonzero(~offers)
            # Steps 8-9: every refusal raises that server's class price.
            p[out] = np.minimum(np.maximum(p[out] * factor, floor), cap)
            refusers = who[out]
            top_price[refusers] = np.maximum(top_price[refusers], p[out])
            # Section 5.1: below the threshold a refusing server still
            # offers; once at it, it enforces its supply all period.
            lenient = ~latched[refusers] & (
                top_price[refusers] < ACTIVATION_THRESHOLD
            )
            latched[refusers] = ~lenient
            offers[out] = lenient
        else:
            offers[:] = True
        if not offers.any():
            return None
        done = np.maximum(quoted[who], now) + lane_cost[k]
        done[~offers] = math.inf
        best = int(done.argmin())  # first minimum: lowest node id on ties
        if qa and left[best] >= 1.0:
            left[best] -= 1.0
        quoted[who[best]] = done[best]
        return int(who[best])

    def solve(now):
        """Eq. 4 at every node (proportional seller, carry-over credit),
        then the new period's latches and price maxima."""
        prices = np.ones((num_nodes, num_classes))
        for k, rows in lanes.items():
            prices[rows, k] = price[k]
        free = np.clip(allowance - np.clip(clock - now, 0.0, None), 0.0, None)
        density = prices / cost
        best = density.max(axis=1)
        weight = np.zeros_like(density)
        live = best > 0.0
        weight[live] = (density[live] / best[live, None]) ** 2.0
        total = weight.sum(axis=1)
        total[total == 0.0] = 1.0
        credit[...] += (free[:, None] * weight / total[:, None]) / cost
        whole = np.floor(credit + 1e-9)
        credit[...] -= whole
        latched[:] = False
        top_price[:] = idle_price
        for k, rows in lanes.items():
            supply[k][:] = whole[rows, k]
            np.maximum.at(top_price, rows, price[k])

    def tick(now, queries):
        """Exchanges in arrival order, then the winners execute: two
        latency legs of negotiation, FIFO start, finish feeds the quotes."""
        nonlocal exchanges
        exchanges += len(queries)
        refused, won = [], []
        for query in queries:
            node = exchange(query[1], now)
            if node is None:
                refused.append(query)
            else:
                won.append(query + (node,))
        for qid, k, origin, arrival, resub, node in won:
            if jitter == 0.0:
                delay = base + base
            else:
                draw = delays[node].random
                delay = (base + jitter * draw()) + (base + jitter * draw())
            assigned = now + delay
            start = max(clock[node], assigned)
            finish = start + cost[node, k]
            clock[node] = quoted[node] = finish
            outcomes.append(
                (qid, k, origin, arrival, assigned, node, start, finish, resub)
            )
        return refused

    def boundary(now, pending):
        """Steps 12-14 (unsold supply lowers its price), eq. 4, retries."""
        for k in lanes:
            unsold = supply[k] > 0.0
            cut = np.maximum(1.0 - supply[k] * params.adjustment, 0.0)
            price[k][unsold] = np.maximum(price[k] * cut, floor)[unsold]
        solve(now)
        retries = [(q, k, o, a, resub + 1) for q, k, o, a, resub in pending]
        return tick(now, retries)

    if qa:
        solve(0.0)
    when = operator.attrgetter("time_ms")
    events = sorted(trace, key=when)
    pending = []
    next_boundary = config.period_ms
    qids = itertools.count()
    for now, arrivals in itertools.groupby(events, key=when):
        while qa and next_boundary <= now:  # boundary first on a tie
            pending = boundary(next_boundary, pending)
            next_boundary += config.period_ms
        pending += tick(
            now,
            [
                (next(qids), event.class_index, event.origin_node, now, 0)
                for event in arrivals
            ],
        )
    end_of_run = events[-1].time_ms + config.drain_ms
    while pending and next_boundary <= end_of_run:
        pending = boundary(next_boundary, pending)
        next_boundary += config.period_ms

    columns = [
        np.array(column, dtype=np.int64 if n in (0, 1, 2, 5, 8) else float)
        for n, column in enumerate(zip(*outcomes))
    ]
    order = np.lexsort((columns[0], columns[7]))
    collector = MetricsCollector()
    collector.add_counters(vector_exchanges=exchanges)
    collector.record_outcomes(
        [column[order] for column in columns],
        dropped=len(pending),
        _pairwise_sum=True,
    )
    return ShardedRunResult(collector, messages=0, shards=1)
