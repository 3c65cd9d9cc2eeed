"""The paper's primary contribution: query markets and the QA-NT mechanism.

Layered as:

* :mod:`repro.core.vectors` — demand/consumption/supply vector algebra;
* :mod:`repro.core.preferences` — node preference relations;
* :mod:`repro.core.pareto` — Pareto dominance/optimality of allocations;
* :mod:`repro.core.supply` — supply sets and the seller's problem (eq. 4);
* :mod:`repro.core.market` — prices, excess demand, equilibrium;
* :mod:`repro.core.tatonnement` — the centralised umpire baseline;
* :mod:`repro.core.qant` — the decentralised QA-NT pricing agent;
* :mod:`repro.core.period_engine` — batched period boundaries over a
  fleet of QA-NT agents (the paper-scale fast path).
"""

from .market import PriceVector, excess_demand, is_equilibrium
from .pareto import Allocation, is_pareto_optimal, pareto_dominates
from .preferences import PreferenceRelation, ThroughputPreference
from .period_engine import QantPeriodEngine
from .qant import QantParameters, QantPeriodStats, QantPricingAgent
from .supply import (
    SUPPLY_METHODS,
    CapacitySupplySet,
    ExplicitSupplySet,
    SupplySet,
    solve_supply,
)
from .tatonnement import TatonnementResult, TatonnementUmpire
from .vectors import QueryVector, aggregate

__all__ = [
    "Allocation",
    "CapacitySupplySet",
    "ExplicitSupplySet",
    "PreferenceRelation",
    "PriceVector",
    "QantParameters",
    "QantPeriodEngine",
    "QantPeriodStats",
    "QantPricingAgent",
    "QueryVector",
    "SUPPLY_METHODS",
    "SupplySet",
    "TatonnementResult",
    "TatonnementUmpire",
    "ThroughputPreference",
    "aggregate",
    "excess_demand",
    "is_equilibrium",
    "is_pareto_optimal",
    "pareto_dominates",
    "solve_supply",
]
