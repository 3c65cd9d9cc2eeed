"""Registered microbenchmark kernels for the simulation hot path.

Each kernel names one operation whose cost dominates some experiment
(solver calls, price-agent periods, vector arithmetic, event dispatch,
and one end-to-end federation cell), paired with a ``setup`` that builds
its fixtures *outside* the timed region and returns the no-argument
callable the harness times.

Fixtures are seeded so every run of the suite times the same workload —
artifact-to-artifact comparisons across commits measure the code, not the
random draw.  The fixture shapes (8 query classes, 10 s capacity budget,
200-request period stream) match the scale one server node sees per
period in the Figure 4/5 experiments.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict

__all__ = [
    "Kernel",
    "KERNELS",
    "register_kernel",
]


@dataclass(frozen=True)
class Kernel:
    """One registered benchmark: ``setup()`` returns the timed callable.

    ``wall_time`` switches the harness from process CPU time to wall
    clock for this kernel — required for multi-process kernels (the
    sharded federation), where the parent's CPU time misses everything
    the shard workers burn.
    """

    name: str
    description: str
    setup: Callable[[], Callable[[], object]]
    wall_time: bool = False

    @staticmethod
    def teardown(fn: Callable[[], object]) -> None:
        """Release whatever ``setup()`` built behind the callable ``fn``.

        A kernel whose fixture holds resources beyond memory (the forked
        shard pools) exposes a ``close`` attribute on its timed callable,
        next to ``child_peak_kb``; everyone who calls ``setup()`` calls
        this when done with ``fn``.  A no-op for in-process kernels.
        """
        close = getattr(fn, "close", None)
        if callable(close):
            close()


#: Registry in registration order (=: display order of every report).
KERNELS: Dict[str, Kernel] = {}


def register_kernel(
    name: str, description: str, wall_time: bool = False
) -> Callable[[Callable[[], Callable[[], object]]], Callable]:
    """Decorator registering ``setup`` under ``name``."""

    def decorate(setup: Callable[[], Callable[[], object]]) -> Callable:
        if name in KERNELS:
            raise ValueError("duplicate benchmark kernel %r" % name)
        KERNELS[name] = Kernel(
            name=name,
            description=description,
            setup=setup,
            wall_time=wall_time,
        )
        return setup

    return decorate


# Shared fixture scale: one node pricing 8 query classes over a 10-second
# capacity budget, as in the two-query-world experiments scaled up to a
# richer classification.
_NUM_CLASSES = 8
_CAPACITY_MS = 10_000.0
_SEED = 42


def _supply_fixture():
    """A seeded ``(supply_set, prices)`` pair shared by the solver kernels."""
    from ..core.supply import CapacitySupplySet

    rng = random.Random(_SEED)
    costs = [rng.uniform(50.0, 2000.0) for __ in range(_NUM_CLASSES)]
    prices = tuple(rng.uniform(0.5, 3.0) for __ in range(_NUM_CLASSES))
    return CapacitySupplySet(costs, _CAPACITY_MS), prices


@register_kernel(
    "qant.run_period",
    "QantPricingAgent full period over a 200-request stream (steady state)",
)
def _setup_qant_run_period() -> Callable[[], object]:
    from ..core.qant import QantParameters, QantPricingAgent

    supply_set, __ = _supply_fixture()
    rng = random.Random(_SEED + 1)
    requests = [rng.randrange(_NUM_CLASSES) for __ in range(200)]
    agent = QantPricingAgent(supply_set, QantParameters())
    agent.run_period(requests)  # warm: reach the steady-state price regime
    return lambda: agent.run_period(requests)


def _solver_kernel(method: str) -> Callable[[], object]:
    supply_set, prices = _supply_fixture()
    return lambda: supply_set.optimal_supply(prices, method)


@register_kernel(
    "supply.greedy", "CapacitySupplySet greedy solve, 8 classes (uncached)"
)
def _setup_supply_greedy() -> Callable[[], object]:
    return _solver_kernel("greedy")


@register_kernel(
    "supply.fractional",
    "CapacitySupplySet fractional solve, 8 classes (uncached)",
)
def _setup_supply_fractional() -> Callable[[], object]:
    return _solver_kernel("fractional")


@register_kernel(
    "supply.proportional",
    "CapacitySupplySet proportional solve, 8 classes (uncached)",
)
def _setup_supply_proportional() -> Callable[[], object]:
    return _solver_kernel("proportional")


@register_kernel(
    "supply.exact", "CapacitySupplySet exact DP solve, 8 classes (uncached)"
)
def _setup_supply_exact() -> Callable[[], object]:
    return _solver_kernel("exact")


@register_kernel(
    "vector.arith", "QueryVector add/sub/scale chain, 8 components"
)
def _setup_vector_arith() -> Callable[[], object]:
    from ..core.vectors import QueryVector

    rng = random.Random(_SEED + 2)
    left = QueryVector([rng.uniform(0.0, 50.0) for __ in range(_NUM_CLASSES)])
    right = QueryVector([rng.uniform(0.0, 50.0) for __ in range(_NUM_CLASSES)])
    return lambda: ((left + right) - right) * 2.0


@register_kernel(
    "vector.aggregate", "aggregate() over 100 QueryVectors of 8 components"
)
def _setup_vector_aggregate() -> Callable[[], object]:
    from ..core.vectors import QueryVector, aggregate

    rng = random.Random(_SEED + 3)
    vectors = [
        QueryVector([rng.uniform(0.0, 50.0) for __ in range(_NUM_CLASSES)])
        for __ in range(100)
    ]
    return lambda: aggregate(vectors)


@register_kernel(
    "qant.period_tick",
    "Batched period boundary over 100 QA-NT agents (QantPeriodEngine "
    "advance pair, alternating free capacity so every row re-solves)",
)
def _setup_qant_period_tick() -> Callable[[], object]:
    from ..core.period_engine import QantPeriodEngine
    from ..core.qant import QantParameters, QantPricingAgent
    from ..core.supply import CapacitySupplySet

    rng = random.Random(_SEED + 4)
    agents = []
    allowances = []
    for __ in range(100):
        # ~10% inf costs model the classes a node holds no relations for,
        # exercising the engine's invalid-class masking.
        costs = [
            math.inf if rng.random() < 0.1 else rng.uniform(50.0, 2000.0)
            for __ in range(_NUM_CLASSES)
        ]
        if all(math.isinf(c) for c in costs):
            costs[0] = rng.uniform(50.0, 2000.0)
        agents.append(
            QantPricingAgent(
                CapacitySupplySet(costs, _CAPACITY_MS), QantParameters()
            )
        )
        allowances.append(_CAPACITY_MS)
    engine = QantPeriodEngine(agents, allowances, can_defer=False)
    caps_full = list(allowances)
    caps_busy = [0.75 * c for c in allowances]
    full = lambda: caps_full  # noqa: E731
    busy = lambda: caps_busy  # noqa: E731
    # Warm past the decay transient (prices settle at the floor within a
    # few ticks) so every timed op measures the same stationary workload:
    # a full gather + decay scan + solve of all 100 rows per boundary
    # (the alternating capacities defeat the row-level plan cache).
    for __ in range(300):
        engine.advance(True, full)
        engine.advance(True, busy)

    def run_once() -> int:
        engine.advance(True, full)
        engine.advance(True, busy)
        return engine.stats.ticks

    return run_once


@register_kernel(
    "sim.event_throughput",
    "Simulator schedule + drain of 1,000 events (fresh engine per op)",
)
def _setup_sim_event_throughput() -> Callable[[], object]:
    from ..sim.engine import Simulator

    # Deterministic pseudo-shuffled delays exercise real heap reordering
    # rather than the sorted-input best case.
    delays = [float((i * 7919) % 1000) for i in range(1000)]

    def noop() -> None:
        return None

    def run_once() -> int:
        simulator = Simulator()
        schedule = simulator.schedule
        for delay in delays:
            schedule(delay, noop)
        simulator.run()
        return simulator.events_processed

    return run_once


@register_kernel(
    "net.broadcast",
    "Network round_trip_ms over a 100-peer request-for-bid fan-out",
)
def _setup_net_broadcast() -> Callable[[], object]:
    from ..sim.engine import Simulator
    from ..sim.network import Network

    network = Network(Simulator(), seed=_SEED)
    return lambda: network.round_trip_ms(100)


@register_kernel(
    "proto.codec",
    "protocol encode+decode round trip over a 200-message market mix "
    "(bid/quote/refusal/assign/completion/tick)",
)
def _setup_proto_codec() -> Callable[[], object]:
    from ..protocol import (
        AssignQuery,
        BidRequest,
        CompletionReport,
        PeriodTick,
        Quote,
        Refusal,
        decode,
        encode,
    )

    # A period's worth of wire traffic as QA-NT produces it: every query
    # pays a bid fan-out, most get quotes and a confirm + completion,
    # the rest a refusal; one tick closes the period.
    rng = random.Random(_SEED + 5)
    messages = []
    for qid in range(40):
        class_index = rng.randrange(_NUM_CLASSES)
        messages.append(
            BidRequest(qid=qid, class_index=class_index, origin_node=-1)
        )
        if rng.random() < 0.8:
            node_id = rng.randrange(20)
            started = rng.uniform(0.0, 10_000.0)
            messages.append(
                Quote(
                    qid=qid,
                    node_id=node_id,
                    class_index=class_index,
                    estimated_completion_ms=rng.uniform(1.0, 5_000.0),
                )
            )
            messages.append(
                AssignQuery(
                    qid=qid, node_id=node_id, class_index=class_index
                )
            )
            messages.append(
                CompletionReport(
                    qid=qid,
                    node_id=node_id,
                    class_index=class_index,
                    started_ms=started,
                    finished_ms=started + rng.uniform(1.0, 2_000.0),
                )
            )
        else:
            messages.append(
                Refusal(
                    qid=qid,
                    node_id=rng.randrange(20),
                    class_index=class_index,
                )
            )
    while len(messages) < 200:
        messages.append(
            PeriodTick(period_index=len(messages), period_ms=500.0)
        )

    def run_once() -> int:
        total = 0
        for message in messages:
            total += len(encode(message))
            decode(encode(message))
        return total

    return run_once


@register_kernel(
    "e2e.federation_sweep",
    "End-to-end fig5-style cell pair: qa-nt + greedy on a 20-node world, "
    "1.5x load sinusoid, 5 s horizon",
)
def _setup_e2e_federation_sweep() -> Callable[[], object]:
    from ..allocation import GreedyAllocator, QantAllocator
    from ..experiments.setups import (
        run_mechanism,
        sinusoid_trace_for_load,
        two_query_world,
    )
    from ..sim import FederationConfig

    world = two_query_world(num_nodes=20, seed=0)
    trace = sinusoid_trace_for_load(
        world,
        load_fraction=1.5,
        horizon_ms=5_000.0,
        frequency_hz=0.05,
        seed=10,
    )
    pair = (("qa-nt", QantAllocator), ("greedy", GreedyAllocator))

    def run_once():
        return [
            run_mechanism(
                world, trace, name, factory, FederationConfig(seed=2)
            ).metrics_dict()
            for name, factory in pair
        ]

    return run_once


@register_kernel(
    "fed.fig5a_chaos_short",
    "Fig5a-style cell pair under active faults (5% drops, spikes, "
    "half-partition, 2/min churn) on a 20-node world, 2 s horizon",
)
def _setup_fed_fig5a_chaos_short() -> Callable[[], object]:
    from ..allocation import GreedyAllocator, QantAllocator
    from ..experiments.setups import (
        run_mechanism,
        sinusoid_trace_for_load,
        two_query_world,
    )
    from ..sim import FederationConfig
    from ..sim.faults import FaultSpec, half_partition

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
    pair = (("qa-nt", QantAllocator), ("greedy", GreedyAllocator))

    def run_once():
        return [
            run_mechanism(
                world,
                trace,
                name,
                factory,
                FederationConfig(seed=2, faults=spec),
            ).metrics_dict()
            for name, factory in pair
        ]

    return run_once


@register_kernel(
    "fed.fig5a_paper_short",
    "Paper-scale fig5a cell pair: qa-nt + greedy on a 100-node world, "
    "1.5x load sinusoid, 2 s horizon (the PR 3 optimisation target)",
)
def _setup_fed_fig5a_paper_short() -> Callable[[], object]:
    from ..allocation import GreedyAllocator, QantAllocator
    from ..experiments.setups import (
        run_mechanism,
        sinusoid_trace_for_load,
        two_query_world,
    )
    from ..sim import FederationConfig

    # Same fixture as tests/golden/fig5a_paper_short_seed0.json: the
    # 100-node short-horizon slice of the fig5a qa-nt cell whose full
    # 20 s version is the paper-scale wall-clock benchmark.
    world = two_query_world(num_nodes=100, seed=0)
    trace = sinusoid_trace_for_load(
        world,
        load_fraction=1.5,
        horizon_ms=2_000.0,
        frequency_hz=0.05,
        seed=10,
    )
    pair = (("qa-nt", QantAllocator), ("greedy", GreedyAllocator))

    def run_once():
        return [
            run_mechanism(
                world, trace, name, factory, FederationConfig(seed=2)
            ).metrics_dict()
            for name, factory in pair
        ]

    return run_once

@register_kernel(
    "fed.fig5a_1000node",
    "Scaling-curve cell pair: qa-nt + greedy on a 1,000-node world, "
    "1.5x load sinusoid quantised to 25 ms arrival ticks, 2 s horizon "
    "(the market-tick batch dispatcher's showcase)",
)
def _setup_fed_fig5a_1000node() -> Callable[[], object]:
    from ..experiments.scaling import scaling_cell

    # Same fixture as the `scaling` scenario's 1,000-node paper point
    # (seed 0, point_index 0), cut to a 2 s horizon so one call stays
    # test-sized: ~3,900 queries negotiated against 1,000-candidate
    # fan-outs, almost all through the vectorised batch path.
    def run_once():
        return [
            scaling_cell(name, 1000, 0, 0, horizon_ms=2_000.0)
            for name in ("qa-nt", "greedy")
        ]

    return run_once


@register_kernel(
    "fed.fig5a_localmarket",
    "Sharded cell pair: qa-nt + greedy on the same 1,000-node fixture as "
    "fed.fig5a_1000node, run through a 4-shard forked ShardedFederation "
    "(shard-local market planes, R=4; wall clock)",
    wall_time=True,
)
def _setup_fed_fig5a_localmarket() -> Callable[[], object]:
    from ..experiments.scaling import quantise_trace
    from ..experiments.setups import sinusoid_trace_for_load, two_query_world
    from ..sim import FederationConfig, ShardedFederation

    # The exact fed.fig5a_1000node fixture (world seed 0, trace seed 10
    # on the 25 ms grid, federation seed 2).  The shard pool forks once
    # here, outside the timed region, matching how the scaling sweep
    # amortises it.  On this two-class world the whole market is one
    # affinity component, so it runs as the coordinator's in-process
    # residual plane; affinity-rich catalogs add multi-core shard
    # overlap on top (see the scaling-reconcile scenario).
    world = two_query_world(num_nodes=1000, seed=0)
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
    federation = ShardedFederation(
        world.specs,
        world.placement,
        world.classes,
        world.cost_model,
        config=FederationConfig(seed=2),
        shards=4,
        mode="fork",
        reconcile_interval=4,
    )

    def run_once():
        return [
            federation.run(trace, name).payload()
            for name in ("qa-nt", "greedy")
        ]

    run_once.child_peak_kb = federation.transport.child_peak_kb
    run_once.shard_self_time_s = federation.shard_self_time_s
    run_once.close = federation.close
    return run_once
