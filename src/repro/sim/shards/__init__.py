"""Sharded multi-process federation: shard-local market planes.

The federation's nodes are partitioned across ``N`` worker processes by
*query-class affinity* (:func:`plan_shards`: classes whose bidder sets
overlap land on the same shard).  QA-NT's pricing state factors along
the catalog's *affinity components*: two query classes interact only
through a shared bidder (busy clock, max-price latch), so a component
whose nodes all landed on one shard runs its **entire**
bid/price/refusal/solve dynamics shard-side, in that shard's
:class:`~.plane._MarketPlane`.  Components split across shards form the
**residual plane**, priced and executed by the coordinator with the
identical arithmetic.  A plane is a deterministic function of its
trace slice, so the coordinator otherwise only routes, once per run:

* the trace is split by owning plane; each shard's slice crosses
  :class:`ShardTransport` as one-way ``slice`` frames, each holding the
  bids as four plain columns cut at tick edges (:func:`~.engine._slice_batches`),
  then one one-way ``end`` frame;
* every plane takes its own period boundaries and drains on its own
  pending count, with no barrier between planes;
* a final ``collect`` barrier merges the outcome columns; each plane
  renders its own rows of the outcome digest there, so the coordinator
  only orders and hashes them (:meth:`ShardedRunResult.outcome_digest`).

A plane keeps its classes' prices and supply as flat lanes under one
:class:`~repro.allocation.market_tick.LaneBlock` — the state block the
single-process dispatcher holds over the period engine's lanes — and
within a period answers a *closed* class (no supply left, every bidder
latched) with the price raise alone (:meth:`~.plane._MarketPlane._closed_raises`).
``mode="tcp"`` runs the same
workers behind length-prefixed frames over localhost sockets (the
:mod:`repro.protocol.transport` framing helpers; a JSON header, then the
arrays and rendered rows as raw attachments, :func:`~.wire._wire_encode`), so
shards can span machines.

Determinism is the design's backbone:

* ``shards=1`` delegates verbatim to the single-process engine
  (:func:`repro.sim.federation.build_federation`), so every existing
  golden pins it byte-for-byte;
* ``shards>1`` is invariant to the shard count, the transport mode and
  the frame size: every plane is exactly the global tick market
  restricted to its component set, planes see their own ticks and
  boundaries in trace order, per-node latency streams are keyed by
  *node id* (not shard) through the sha256 scheme of
  :func:`~repro.sim.faults.derive_fault_seed`, and outcomes are
  globally sorted by ``(finish_ms, qid)``
  before any float reduction, so summary means are bit-identical
  however the fleet is partitioned.
  ``tests/reference_market.py`` is that global market as one plain
  program — the oracle the planes are compared against.

The ``shards>1`` engine is a *model* of the same market, not a replay
of the single-process event loop: arrivals are priced tick by tick,
negotiation delay is charged per assignment from the winning node's
latency stream (two legs) instead of the slowest full-fan-out round
trip, and refused queries wait in per-class pools for the next period
boundary.  Its outputs are pinned by their own goldens
(``tests/golden/sharded_1000node_seed0.json``,
``tests/golden/localmarket_zipf_seed0.json``).

Four modules, imported one way: :mod:`.plan` (the partition policy)
and :mod:`.plane` (the plane market) import nothing of the package;
:mod:`.wire` (worker loop, wire format, transport) imports
:mod:`.plane`; :mod:`.engine` (routing, residual plane, merge) imports
all three.  Private names live in their own module only, where a test
patches them; every module logs to the ``repro.sim.shards`` logger.
"""

from __future__ import annotations

# The wire sends through ``wire.encode_frame`` (patch it there); this
# attribute stays for perf/test_perf_smoke.py::
# test_wrappers_are_installed_only_for_the_traced_pass.
from ...protocol.transport import encode_frame
from .engine import ShardedFederation, ShardedRunResult
from .plan import ShardPlan, plan_shards, split_market_classes
from .wire import ShardFailure, ShardTransport

__all__ = [
    "ShardFailure",
    "ShardPlan",
    "ShardTransport",
    "ShardedFederation",
    "ShardedRunResult",
    "plan_shards",
    "split_market_classes",
]
