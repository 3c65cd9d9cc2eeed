"""Ablations A1–A4 — the design choices DESIGN.md calls out.

* **A1 (lambda)** — the price-adjustment coefficient trades convergence
  speed against accuracy (Section 3.3): measured on the centralised
  tatonnement umpire (iterations to equilibrium, residual excess) and on
  QA-NT end-to-end response time.
* **A2 (period length T)** — larger T helps static load, hurts dynamic
  (Section 5.1): QA-NT response time across T values on slow and fast
  sinusoids.
* **A3 (partial adoption)** — Section 4 claims QA-NT still helps when
  only a subset of nodes adopt it: response time vs adoption fraction.
* **A4 (Markov vs QA-NT, static load)** — the paper grades the
  Markov/queueing allocator "excellent" on the static workloads it
  requires and says QA-NT "comes close": both are measured on a static
  Poisson workload.
* **A5 (supply rounding)** — the integer-rounding error the paper blames
  for Greedy's small-load advantage: QA-NT with corner/integer supply vs
  the smooth proportional solver.
"""

from __future__ import annotations

from typing import Dict

from ..allocation import GreedyAllocator, MarkovAllocator, QantAllocator
from ..core import (
    CapacitySupplySet,
    QantParameters,
    QueryVector,
    TatonnementUmpire,
)
from ..sim import FederationConfig
from ..workload import PoissonArrivals, build_trace
from .setups import (
    run_mechanism,
    sinusoid_trace_for_load,
    two_query_world,
)
from .spec import ScalePreset, ScenarioSpec, register

__all__ = [
    "lambda_cell",
    "period_cell",
    "partial_adoption_cell",
    "static_markov_cell",
    "rounding_cell",
]


# --------------------------------------------------------------------------- A1


def _umpire_convergence(lam: float) -> tuple:
    """Centralised tatonnement convergence at step ``lam``.

    The umpire starts from deliberately skewed prices so the market needs
    real adjustment; the paper's trade-off shows cleanly: larger lambda
    clears in fewer iterations, until it overshoots and oscillates forever
    (the "decreased accuracy" failure mode).  Returns ``(iterations,
    residual_excess)``.
    """
    from ..core.market import PriceVector

    supply_sets = [
        CapacitySupplySet([800.0, 1600.0], 10_000.0),
        CapacitySupplySet([1600.0, 800.0], 10_000.0),
        CapacitySupplySet([1000.0, 1000.0], 10_000.0),
    ]
    demands = [
        QueryVector((6, 2)),
        QueryVector((4, 4)),
        QueryVector((2, 6)),
    ]
    skewed = PriceVector([1.0, 0.05])
    umpire = TatonnementUmpire(
        step=lam, max_iterations=5000, supply_method="proportional"
    )
    result = umpire.find_equilibrium(demands, supply_sets, initial_prices=skewed)
    return result.iterations, max(0.0, max(result.excess))


def lambda_cell(
    mechanism: str,
    adjustment_lambda: float,
    point_index: int,
    seed: int,
    num_nodes: int = 30,
    horizon_ms: float = 40_000.0,
    load_fraction: float = 1.2,
) -> Dict[str, float]:
    """One (lambda, seed) sweep cell: umpire convergence + QA-NT response."""
    iterations, residual = _umpire_convergence(adjustment_lambda)
    world = two_query_world(num_nodes=num_nodes, seed=seed)
    trace = sinusoid_trace_for_load(
        world, load_fraction=load_fraction, horizon_ms=horizon_ms, seed=seed + 1
    )
    run = run_mechanism(
        world,
        trace,
        mechanism,
        lambda: QantAllocator(
            parameters=QantParameters(adjustment=adjustment_lambda)
        ),
        config=FederationConfig(seed=seed + 2),
    )
    metrics = run.metrics_dict()
    metrics["umpire_iterations"] = float(iterations)
    metrics["umpire_residual"] = residual
    return metrics


# --------------------------------------------------------------------------- A2


#: The period sweep encodes the workload dynamics in the mechanism label
#: so the two sinusoid frequencies appear as two series of one sweep.
_PERIOD_FREQUENCIES = {"qa-nt@0.05Hz": 0.05, "qa-nt@1Hz": 1.0}


def period_cell(
    mechanism: str,
    period_ms: float,
    point_index: int,
    seed: int,
    num_nodes: int = 30,
    horizon_ms: float = 40_000.0,
    load_fraction: float = 1.2,
) -> Dict[str, float]:
    """One (mechanism-label, period, seed) sweep cell for ablation A2."""
    frequency_hz = _PERIOD_FREQUENCIES[mechanism]
    world = two_query_world(num_nodes=num_nodes, seed=seed)
    trace = sinusoid_trace_for_load(
        world,
        load_fraction=load_fraction,
        horizon_ms=horizon_ms,
        frequency_hz=frequency_hz,
        seed=seed + 1,
    )
    run = run_mechanism(
        world,
        trace,
        mechanism,
        QantAllocator,
        config=FederationConfig(period_ms=period_ms, seed=seed + 2),
    )
    return run.metrics_dict()


# --------------------------------------------------------------------------- A3


def partial_adoption_cell(
    mechanism: str,
    adoption_fraction: float,
    point_index: int,
    seed: int,
    num_nodes: int = 40,
    horizon_ms: float = 40_000.0,
    load_fraction: float = 1.2,
) -> Dict[str, float]:
    """One (adoption fraction, seed) sweep cell for ablation A3.

    Non-adopting nodes always offer (greedy behaviour), so fraction 0.0
    degenerates to Greedy and 1.0 to full QA-NT.
    """
    world = two_query_world(num_nodes=num_nodes, seed=seed)
    trace = sinusoid_trace_for_load(
        world, load_fraction=load_fraction, horizon_ms=horizon_ms, seed=seed + 1
    )
    adopters = set(range(int(round(adoption_fraction * world.num_nodes))))
    run = run_mechanism(
        world,
        trace,
        mechanism,
        lambda: QantAllocator(adopters=adopters),
        config=FederationConfig(seed=seed + 2),
    )
    return run.metrics_dict()


# --------------------------------------------------------------------------- A4


def static_markov_cell(
    mechanism: str,
    load_fraction: float,
    point_index: int,
    seed: int,
    num_nodes: int = 30,
    horizon_ms: float = 60_000.0,
) -> Dict[str, float]:
    """One (mechanism, load, seed) sweep cell for ablation A4.

    The Markov allocator's arrival-rate parameters are recomputed from
    the world's capacity inside the cell, exactly as the paper requires
    (the static allocator must be told the workload in advance).
    """
    world = two_query_world(num_nodes=num_nodes, seed=seed)
    capacity = world.capacity_qpms([2.0, 1.0])
    rate_q1 = load_fraction * capacity * 2.0 / 3.0
    rate_q2 = load_fraction * capacity / 3.0
    trace = build_trace(
        {0: PoissonArrivals(rate_q1), 1: PoissonArrivals(rate_q2)},
        horizon_ms=horizon_ms,
        origin_nodes=world.placement.node_ids,
        seed=seed + 1,
    )
    factories = {
        "qa-nt": QantAllocator,
        "greedy": GreedyAllocator,
        "markov": lambda: MarkovAllocator([rate_q1, rate_q2]),
    }
    run = run_mechanism(
        world,
        trace,
        mechanism,
        factories[mechanism],
        config=FederationConfig(seed=seed + 2),
    )
    return run.metrics_dict()


# --------------------------------------------------------------------------- A5


#: The rounding ablation encodes the supply solver in the mechanism label.
_ROUNDING_PARAMETERS = {
    "greedy-int": dict(supply_method="greedy", carry_over=False),
    "greedy-carry": dict(supply_method="greedy-fractional", carry_over=True),
    "proportional": dict(supply_method="proportional", carry_over=True),
}


def rounding_cell(
    mechanism: str,
    load_fraction: float,
    point_index: int,
    seed: int,
    num_nodes: int = 30,
    horizon_ms: float = 40_000.0,
) -> Dict[str, float]:
    """One (solver-label, load, seed) sweep cell for ablation A5."""
    params = QantParameters(**_ROUNDING_PARAMETERS[mechanism])
    world = two_query_world(num_nodes=num_nodes, seed=seed)
    trace = sinusoid_trace_for_load(
        world, load_fraction=load_fraction, horizon_ms=horizon_ms, seed=seed + 1
    )
    run = run_mechanism(
        world,
        trace,
        mechanism,
        lambda: QantAllocator(parameters=params),
        config=FederationConfig(seed=seed + 2, drain_ms=120_000.0),
    )
    return run.metrics_dict()


# ----------------------------------------------------------------- registry

register(
    ScenarioSpec(
        name="ablation-lambda",
        title="A1 — price-adjustment coefficient lambda",
        cell=lambda_cell,
        axis="adjustment_lambda",
        mechanisms=("qa-nt",),
        scales={
            "small": ScalePreset(
                points=(0.001, 0.005, 0.02, 0.05), fixed={"num_nodes": 20}
            ),
            "paper": ScalePreset(
                points=(0.001, 0.005, 0.02, 0.05), fixed={"num_nodes": 30}
            ),
        },
    )
)

register(
    ScenarioSpec(
        name="ablation-period",
        title="A2 — market period length T",
        cell=period_cell,
        axis="period_ms",
        mechanisms=("qa-nt@0.05Hz", "qa-nt@1Hz"),
        scales={
            "small": ScalePreset(
                points=(125.0, 250.0, 500.0, 1000.0, 2000.0),
                fixed={"num_nodes": 20},
            ),
            "paper": ScalePreset(
                points=(125.0, 250.0, 500.0, 1000.0, 2000.0),
                fixed={"num_nodes": 30},
            ),
        },
    )
)

register(
    ScenarioSpec(
        name="ablation-partial",
        title="A3 — partial QA-NT adoption",
        cell=partial_adoption_cell,
        axis="adoption_fraction",
        mechanisms=("qa-nt",),
        scales={
            "small": ScalePreset(
                points=(0.0, 0.25, 0.5, 0.75, 1.0), fixed={"num_nodes": 20}
            ),
            "paper": ScalePreset(
                points=(0.0, 0.25, 0.5, 0.75, 1.0), fixed={"num_nodes": 40}
            ),
        },
    )
)

register(
    ScenarioSpec(
        name="ablation-markov",
        title="A4 — Markov vs QA-NT on a static workload",
        cell=static_markov_cell,
        axis="load_fraction",
        mechanisms=("qa-nt", "greedy", "markov"),
        scales={
            "small": ScalePreset(points=(0.7,), fixed={"num_nodes": 20}),
            "paper": ScalePreset(points=(0.7,), fixed={"num_nodes": 30}),
        },
    )
)

register(
    ScenarioSpec(
        name="ablation-rounding",
        title="A5 — integer supply rounding vs smooth supply",
        cell=rounding_cell,
        axis="load_fraction",
        mechanisms=("greedy-int", "greedy-carry", "proportional"),
        scales={
            "small": ScalePreset(points=(0.5, 1.5), fixed={"num_nodes": 20}),
            "paper": ScalePreset(points=(0.5, 1.5), fixed={"num_nodes": 30}),
        },
    )
)
