"""Real-DBMS substrate: SQLite server nodes that answer the market
protocol, and the real-time client that negotiates with them.

Reproduces the paper's Section 5.2 deployment on one machine; see
DESIGN.md for the documented substitutions.
"""

from .federation import (
    DbmsFederation,
    DbmsQueryOutcome,
    DbmsRunResult,
    FederationTimeout,
    InProcessTransport,
)
from .node import ACTIVATION_THRESHOLD, ExecutionResult, SqliteServerNode

__all__ = [
    "ACTIVATION_THRESHOLD",
    "DbmsFederation",
    "DbmsQueryOutcome",
    "DbmsRunResult",
    "ExecutionResult",
    "FederationTimeout",
    "InProcessTransport",
    "SqliteServerNode",
]
