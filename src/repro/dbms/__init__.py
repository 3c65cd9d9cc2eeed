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
)
from .node import ExecutionResult, SqliteServerNode

__all__ = [
    "DbmsFederation",
    "DbmsQueryOutcome",
    "DbmsRunResult",
    "ExecutionResult",
    "FederationTimeout",
    "SqliteServerNode",
]
