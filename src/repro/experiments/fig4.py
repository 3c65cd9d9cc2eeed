"""Experiment E4 — normalised response time of all mechanisms (Figure 4).

The paper runs the two-query workload (0.05 Hz sinusoid, peak load
slightly below total system capacity) on the 100-node heterogeneous
federation and reports each mechanism's average query response time
normalised by QA-NT's.  Expected shape: QA-NT and Greedy close to 1 and
substantially better than the load balancers; random and round-robin
worst; two-random-probes between round-robin and BNQRD.
"""

from __future__ import annotations

from typing import Dict

from ..sim import FederationConfig
from .setups import (
    default_mechanism_factories,
    run_mechanism,
    sinusoid_trace_for_load,
    two_query_world,
)
from .spec import ScalePreset, ScenarioSpec, register

__all__ = ["fig4_cell"]


def fig4_cell(
    mechanism: str,
    load_fraction: float,
    point_index: int,
    seed: int,
    num_nodes: int = 100,
    horizon_ms: float = 120_000.0,
    frequency_hz: float = 0.05,
) -> Dict[str, float]:
    """One (mechanism, seed) cell of Figure 4.

    The world is built from ``seed``, the trace from ``seed + 1`` and the
    federation from ``seed + 2``, so every mechanism of one seed sees the
    same trace regardless of which process runs the cell.  The presets'
    ``load_fraction`` of 0.7 average makes peak load "slightly below
    total system capacity" (the sinusoid's instantaneous peak is about
    4/3 of its mean).
    """
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
        default_mechanism_factories()[mechanism],
        FederationConfig(seed=seed + 2),
    )
    return run.metrics_dict()


register(
    ScenarioSpec(
        name="fig4",
        title="Fig. 4 — normalised response of all six mechanisms",
        axis="load_fraction",
        mechanisms=tuple(default_mechanism_factories()),
        cell=fig4_cell,
        scales={
            "small": ScalePreset(
                points=(0.7,),
                fixed={"num_nodes": 30, "horizon_ms": 60_000.0},
            ),
            "paper": ScalePreset(
                points=(0.7,),
                fixed={"num_nodes": 100, "horizon_ms": 120_000.0},
            ),
        },
    )
)
