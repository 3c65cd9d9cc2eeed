"""Experiments E5–E7 — QA-NT in dynamic environments (paper Figure 5).

Three panels, all on the two-query world:

* **5a** — Greedy's response time normalised by QA-NT's as the average
  workload sweeps 10–300 % of system capacity (20 s, 0.05 Hz sinusoid).
  Paper shape: Greedy ≈5 % better below 75 %, 15–32 % worse above.
* **5b** — the same normalised ratio as the sinusoid frequency sweeps
  0.05–2 Hz at 80 % average load; the QA-NT advantage shrinks with
  frequency.
* **5c** — per-half-second counts of Q1 queries arriving vs executed by
  QA-NT and by Greedy near total capacity; QA-NT tracks the arrival curve
  more closely because it reserves capacity by pricing Q2 onto slower
  nodes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence

from ..allocation import GreedyAllocator, QantAllocator
from ..sim import FederationConfig
from .reporting import format_series
from .setups import (
    run_mechanism,
    run_mechanisms,
    sinusoid_trace_for_load,
    two_query_world,
)
from .spec import ScalePreset, ScenarioSpec, register

__all__ = [
    "Fig5cResult",
    "fig5a_cell",
    "fig5b_cell",
    "run_fig5c",
]

#: Mechanism pair the panels compare.
_PAIR = {"qa-nt": QantAllocator, "greedy": GreedyAllocator}


def fig5a_cell(
    mechanism: str,
    load: float,
    point_index: int,
    seed: int,
    num_nodes: int = 100,
    horizon_ms: float = 20_000.0,
    frequency_hz: float = 0.05,
) -> Dict[str, float]:
    """One (mechanism, load, seed) cell of panel 5a.

    The world is built from ``seed``, the trace from ``seed + 10 +
    point_index`` and the federation from ``seed + 2``, so the two
    mechanisms of one point always see the same trace (paired ratios).
    """
    world = two_query_world(num_nodes=num_nodes, seed=seed)
    trace = sinusoid_trace_for_load(
        world,
        load_fraction=load,
        horizon_ms=horizon_ms,
        frequency_hz=frequency_hz,
        seed=seed + 10 + point_index,
    )
    run = run_mechanism(
        world,
        trace,
        mechanism,
        _PAIR[mechanism],
        FederationConfig(seed=seed + 2),
    )
    return run.metrics_dict()


def fig5b_cell(
    mechanism: str,
    frequency_hz: float,
    point_index: int,
    seed: int,
    num_nodes: int = 100,
    horizon_ms: float = 40_000.0,
    load_fraction: float = 0.8,
) -> Dict[str, float]:
    """One (mechanism, frequency, seed) cell of panel 5b.

    Seeds are derived as in :func:`fig5a_cell`.
    """
    world = two_query_world(num_nodes=num_nodes, seed=seed)
    trace = sinusoid_trace_for_load(
        world,
        load_fraction=load_fraction,
        horizon_ms=horizon_ms,
        frequency_hz=frequency_hz,
        seed=seed + 10 + point_index,
    )
    run = run_mechanism(
        world,
        trace,
        mechanism,
        _PAIR[mechanism],
        FederationConfig(seed=seed + 2),
    )
    return run.metrics_dict()


@dataclass
class Fig5cResult:
    """Per-bucket Q1 arrivals and executions (panel 5c)."""

    bucket_ms: float
    q1_arrivals: List[int]
    q1_executed_qant: List[int]
    q1_executed_greedy: List[int]

    @property
    def times_s(self) -> List[float]:
        """Bucket start times in seconds."""
        return [i * self.bucket_ms / 1000.0 for i in range(len(self.q1_arrivals))]

    def tracking_error(self, executed: Sequence[int]) -> float:
        """Mean absolute arrival-vs-executed gap (lower tracks better)."""
        return sum(
            abs(a - e) for a, e in zip(self.q1_arrivals, executed)
        ) / max(1, len(self.q1_arrivals))

    def render(self) -> str:
        """All three 5c series as text."""
        return "\n".join(
            (
                format_series("Q1 arrivals", self.times_s, self.q1_arrivals),
                format_series(
                    "Q1 executed (qa-nt)", self.times_s, self.q1_executed_qant
                ),
                format_series(
                    "Q1 executed (greedy)", self.times_s, self.q1_executed_greedy
                ),
            )
        )

    def to_dict(self) -> dict:
        """JSON-ready form of the 5c series plus tracking errors."""
        payload = asdict(self)
        payload["times_s"] = self.times_s
        payload["tracking_error_qant"] = self.tracking_error(
            self.q1_executed_qant
        )
        payload["tracking_error_greedy"] = self.tracking_error(
            self.q1_executed_greedy
        )
        return payload


def run_fig5c(
    num_nodes: int = 100,
    horizon_ms: float = 15_000.0,
    load_fraction: float = 0.95,
    frequency_hz: float = 0.05,
    bucket_ms: float = 500.0,
    seed: int = 0,
    config: Optional[FederationConfig] = None,
) -> Fig5cResult:
    """Near-capacity tracking of the Q1 arrival curve (panel 5c)."""
    world = two_query_world(num_nodes=num_nodes, seed=seed)
    trace = sinusoid_trace_for_load(
        world,
        load_fraction=load_fraction,
        horizon_ms=horizon_ms,
        frequency_hz=frequency_hz,
        seed=seed + 1,
    )
    runs = run_mechanisms(
        world,
        trace,
        mechanisms=dict(_PAIR),
        config=config or FederationConfig(seed=seed + 2),
    )
    num_buckets = int(horizon_ms // bucket_ms)
    arrivals = [0] * num_buckets
    for event in trace:
        if event.class_index == 0:
            bucket = min(num_buckets - 1, int(event.time_ms // bucket_ms))
            arrivals[bucket] += 1
    executed = {
        name: run.metrics.executed_per_period(
            bucket_ms, horizon_ms, class_index=0
        )[:num_buckets]
        for name, run in runs.items()
    }
    return Fig5cResult(
        bucket_ms=bucket_ms,
        q1_arrivals=arrivals,
        q1_executed_qant=executed["qa-nt"],
        q1_executed_greedy=executed["greedy"],
    )


register(
    ScenarioSpec(
        name="fig5a",
        title="Fig. 5a — Greedy/QA-NT response ratio vs average load",
        axis="load_fraction",
        mechanisms=("qa-nt", "greedy"),
        ratio_of=("greedy", "qa-nt"),
        cell=fig5a_cell,
        scales={
            "small": ScalePreset(
                points=(0.25, 0.75, 1.5, 3.0), fixed={"num_nodes": 30}
            ),
            "paper": ScalePreset(
                points=(0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0),
                fixed={"num_nodes": 100},
            ),
        },
    )
)

register(
    ScenarioSpec(
        name="fig5b",
        title="Fig. 5b — Greedy/QA-NT response ratio vs sinusoid frequency",
        axis="frequency_hz",
        mechanisms=("qa-nt", "greedy"),
        ratio_of=("greedy", "qa-nt"),
        cell=fig5b_cell,
        scales={
            "small": ScalePreset(
                points=(0.05, 0.5, 2.0), fixed={"num_nodes": 30}
            ),
            "paper": ScalePreset(
                points=(0.05, 0.1, 0.25, 0.5, 1.0, 2.0),
                fixed={"num_nodes": 100},
            ),
        },
    )
)

register(
    ScenarioSpec(
        name="fig5c",
        title="Fig. 5c — Q1 arrivals vs executions near capacity",
        runner=run_fig5c,
        scales={
            "small": ScalePreset(fixed={"num_nodes": 30}),
            "paper": ScalePreset(fixed={"num_nodes": 100}),
        },
    )
)
