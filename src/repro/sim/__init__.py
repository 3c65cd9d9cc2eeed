"""Discrete-event simulator of a federation of autonomous RDBMSs."""

from .capacity import system_capacity_qpms
from .engine import Simulator
from .faults import (
    FaultInjector,
    FaultSpec,
    PartitionWindow,
    derive_fault_seed,
    half_partition,
)
from .federation import (
    DEFAULT_PERIOD_MS,
    DrainCapExceeded,
    FederationConfig,
    FederationSimulation,
    build_federation,
    generate_machine_specs,
)
from .fleet import ClassView, FleetArrays
from .metrics import (
    MetricsCollector,
    QueryOutcome,
    normalised_response_times,
    recovery_time_ms,
)
from .network import LatencyModel, Network
from .node import SimulatedNode
from .shards import (
    ShardFailure,
    ShardPlan,
    ShardTransport,
    ShardedFederation,
    ShardedRunResult,
    derive_shard_seed,
    plan_shards,
    split_market_classes,
)

__all__ = [
    "ClassView",
    "DEFAULT_PERIOD_MS",
    "DrainCapExceeded",
    "FaultInjector",
    "FaultSpec",
    "FederationConfig",
    "FederationSimulation",
    "FleetArrays",
    "LatencyModel",
    "MetricsCollector",
    "Network",
    "PartitionWindow",
    "QueryOutcome",
    "ShardFailure",
    "ShardPlan",
    "ShardTransport",
    "ShardedFederation",
    "ShardedRunResult",
    "SimulatedNode",
    "Simulator",
    "build_federation",
    "derive_fault_seed",
    "derive_shard_seed",
    "generate_machine_specs",
    "half_partition",
    "normalised_response_times",
    "plan_shards",
    "recovery_time_ms",
    "split_market_classes",
    "system_capacity_qpms",
]
