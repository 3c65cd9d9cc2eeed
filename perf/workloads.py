"""The four benchmark workloads: inputs from a seed, engines behind ``run``.

Each workload is batch replay of a generated trace through a public
engine entry point.  The federation itself (machines, catalog, query
classes) is part of the workload definition and is built from the fixed
``WORLD_SEED``; ``--seed s`` draws the arrival trace (seed ``s + 10``)
and the federation's latency/RNG streams (``FederationConfig(seed=s +
2)``).  The engines only ever see the generated world and trace.

Sizes are frozen once recorded in ``BENCHMARK.json``/``README.md``:
changing one changes every number the benchmark has ever reported.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Dict, Optional

from repro.allocation import GreedyAllocator, QantAllocator
from repro.experiments.scaling import quantise_trace
from repro.experiments.setups import (
    run_mechanism,
    sinusoid_trace_for_load,
    two_query_world,
    zipf_world,
)
from repro.sim import (
    FederationConfig,
    ShardedFederation,
    plan_shards,
    split_market_classes,
)
from repro.workload import zipf_trace

from .trace import Seam, Tracer

__all__ = ["WORKLOADS", "Prepared", "Workload", "prepare"]

#: The federation under test is fixed; only arrivals and latency draws
#: follow ``--seed``.  (Reseeding the Zipf catalog moves wall-clock
#: throughput by ~20 % between seeds, which would drown any regression
#: bound; see README "Noise bounds".)
WORLD_SEED = 0

MECHANISMS = ("qa-nt", "greedy")


@dataclass(frozen=True)
class Workload:
    """One named workload and why it exists."""

    name: str
    why: str
    #: ``"single"`` = ``run_mechanism`` on the event engine; ``"fork"`` /
    #: ``"tcp"`` = ``ShardedFederation`` in that transport mode.
    engine: str
    #: Key into :data:`_SIZES` (the two plane workloads share inputs).
    inputs: str

    @property
    def sharded(self) -> bool:
        return self.engine != "single"


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "paper100_event",
            "paper Fig. 5a cell (100 nodes, 1.5x sinusoid): event heap, QA-NT bid "
            "fan-out per arrival and per-period retry batch, round trips, period "
            "engine; no shard or frame code",
            "single",
            "paper100",
        ),
        Workload(
            "tick1000_single",
            "1,000 nodes on a 25 ms arrival grid: ~50-query batches through "
            "assign_batch and the vectorised single-process market tick",
            "single",
            "tick1000",
        ),
        Workload(
            "zipf_planes_fork",
            "Zipf catalog, 2 forked shard-local market planes: ~1 query per "
            "tick, so routing, post frames over pipes, barriers and merge dominate",
            "fork",
            "zipf_planes",
        ),
        Workload(
            "zipf_planes_tcp",
            "same planes and trace over JSON frames on sockets: moves with the "
            "frame codec while zipf_planes_fork stays flat; outcomes must match it",
            "tcp",
            "zipf_planes",
        ),
    )
}

_SIZES = {
    "full": {
        "paper100": dict(nodes=100, horizon_ms=60_000.0, tick_ms=None),
        "tick1000": dict(nodes=1000, horizon_ms=5_000.0, tick_ms=25.0),
        "zipf_planes": dict(
            nodes=300,
            classes=120,
            interarrival_ms=40.0,
            horizon_ms=9_000.0,
            max_queries=24_000,
        ),
    },
    "smoke": {
        "paper100": dict(nodes=30, horizon_ms=5_000.0, tick_ms=None),
        "tick1000": dict(nodes=50, horizon_ms=2_000.0, tick_ms=25.0),
        "zipf_planes": dict(
            nodes=50,
            classes=20,
            interarrival_ms=120.0,
            horizon_ms=20_000.0,
            max_queries=400,
        ),
    },
}

SHARDS = 2
RECONCILE_INTERVAL = 4

_SPAWN_SEAM = Seam("transport.spawn", "repro.sim.shards.ShardTransport.__init__")


def _span(tracer: Optional[Tracer], layer: str):
    return tracer.span(layer) if tracer is not None else contextlib.nullcontext()


class Prepared:
    """Generated inputs plus the constructed engine of one workload."""

    def __init__(self, workload, seed, world, trace, horizon_ms, engine):
        self.workload = workload
        self.seed = seed
        self.world = world
        self.trace = trace
        self.horizon_ms = horizon_ms
        #: The ``ShardedFederation`` (``None`` on single-process workloads,
        #: whose federation is built fresh inside every run).
        self.engine = engine

    def run(self, mechanism: str) -> Dict[str, object]:
        """One full replay; returns the outcome summary and counters.

        ``summary`` is what the correctness gate compares: the sharded
        ``invariant_payload()`` or the single-process
        ``(completed, dropped, mean, p99, messages)`` tuple as a dict.
        The summary is computed inside this call so a timed region that
        wraps it consumes the result.
        """
        if self.engine is not None:
            result = self.engine.run(self.trace, mechanism)
            summary = result.invariant_payload()
            counters = result.batch_summary()
        else:
            factory = QantAllocator if mechanism == "qa-nt" else GreedyAllocator
            run = run_mechanism(
                self.world,
                self.trace,
                mechanism,
                factory,
                FederationConfig(seed=self.seed + 2),
            )
            metrics = run.metrics
            summary = {
                "completed": metrics.completed,
                "dropped": metrics.dropped,
                "mean_response_ms": metrics.mean_response_ms(),
                "p99_response_ms": metrics.percentile_response_ms(0.99),
                "messages": run.messages,
            }
            counters = metrics.batch_summary()
        return {"summary": summary, "counters": counters}

    def twin(self, mode: str) -> "Prepared":
        """The same world and trace behind another transport mode."""
        return Prepared(
            self.workload,
            self.seed,
            self.world,
            self.trace,
            self.horizon_ms,
            _sharded_engine(self.world, self.seed, mode),
        )

    def close(self) -> None:
        """Stop the engine's workers (no-op on single-process workloads)."""
        if self.engine is not None:
            self.engine.close()


def _sharded_engine(world, seed: int, mode: str):
    return ShardedFederation(
        world.specs,
        world.placement,
        world.classes,
        world.cost_model,
        config=FederationConfig(seed=seed + 2),
        shards=SHARDS,
        mode=mode,
        market="local",
        reconcile_interval=RECONCILE_INTERVAL,
    )


def prepare(
    workload: Workload,
    seed: int,
    scale: str = "full",
    tracer: Optional[Tracer] = None,
) -> Prepared:
    """Set-up: world build + trace generation + engine construction.

    With a ``tracer`` the three steps are recorded as spans, the shard
    plan is additionally computed by direct calls (``shards.plan``), and
    the worker spawn is isolated by wrapping ``ShardTransport.__init__``.
    """
    size = _SIZES[scale][workload.inputs]
    with _span(tracer, "setups.world_build"):
        if workload.sharded:
            world = zipf_world(
                size["nodes"], num_classes=size["classes"], seed=WORLD_SEED
            )
        else:
            world = two_query_world(size["nodes"], seed=WORLD_SEED)
    with _span(tracer, "workload.trace_gen"):
        if workload.sharded:
            trace = zipf_trace(
                size["classes"],
                size["interarrival_ms"],
                size["horizon_ms"],
                list(world.placement.node_ids),
                max_queries=size["max_queries"],
                seed=seed + 10,
            )
        else:
            trace = sinusoid_trace_for_load(
                world,
                load_fraction=1.5,
                horizon_ms=size["horizon_ms"],
                frequency_hz=0.05,
                seed=seed + 10,
            )
            if size["tick_ms"] is not None:
                trace = quantise_trace(trace, size["tick_ms"])
    engine = None
    if workload.sharded:
        if tracer is not None:
            with tracer.span("shards.plan"):
                candidates = {
                    qc.index: tuple(sorted(qc.candidate_nodes(world.placement)))
                    for qc in world.classes
                }
                plan = plan_shards(
                    candidates, list(world.placement.node_ids), SHARDS
                )
                split_market_classes(candidates, plan)
            with tracer.patched([_SPAWN_SEAM]):
                engine = _sharded_engine(world, seed, workload.engine)
        else:
            engine = _sharded_engine(world, seed, workload.engine)
    return Prepared(workload, seed, world, trace, size["horizon_ms"], engine)
