"""Experiment E10 — the qualitative mechanism comparison (paper Table 2).

Table 2 classifies each mechanism along five axes: distributed or
centralised, workload type handled, whether it conflicts with distributed
query optimisation, whether it respects node autonomy, and its
performance.  The static properties come straight from the allocator
classes; the performance grade is *measured* by running the Figure 4
experiment and bucketing each mechanism's normalised response time, so
the table is regenerated rather than transcribed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List

from ..allocation import MarkovAllocator
from .fig4 import fig4_cell
from .reporting import format_table
from .setups import default_mechanism_factories
from .spec import ScalePreset, ScenarioSpec, register

__all__ = [
    "Table2Row",
    "Table2Result",
    "performance_grade",
    "run_table2",
]

#: Mechanisms that physically pin one node per query and therefore
#: conflict with (or bypass) distributed query optimisation; QA-NT only
#: restricts the set of offering nodes, staying compatible (Section 4).
_CONFLICTS_WITH_DQO = {
    "greedy",
    "random",
    "round-robin",
    "bnqrd",
    "two-probes",
    "markov",
    "least-imbalance",
}

#: Workload type each mechanism can track.
_WORKLOAD_TYPE = {
    "qa-nt": "dynamic",
    "greedy": "dynamic",
    "random": "dynamic",
    "round-robin": "dynamic",
    "bnqrd": "dynamic",
    "two-probes": "dynamic",
    "markov": "static",
}


@dataclass(frozen=True)
class Table2Row:
    """One mechanism's row of Table 2."""

    mechanism: str
    distributed: bool
    workload_type: str
    conflicts_with_dqo: bool
    respects_autonomy: bool
    performance: str


@dataclass
class Table2Result:
    """The regenerated Table 2."""

    rows: List[Table2Row]
    #: mechanism -> its Figure 4 cell metrics, the measurement behind
    #: the performance column.
    fig4: Dict[str, Dict[str, float]]

    def row(self, mechanism: str) -> Table2Row:
        """The row for ``mechanism`` (KeyError if absent)."""
        for row in self.rows:
            if row.mechanism == mechanism:
                return row
        raise KeyError(mechanism)

    def render(self) -> str:
        """Table 2 as text."""
        return format_table(
            (
                "mechanism",
                "distributed",
                "workload",
                "conflicts w/ DQO",
                "autonomy",
                "performance",
            ),
            [
                (
                    r.mechanism,
                    "X" if r.distributed else "-",
                    r.workload_type,
                    "X" if r.conflicts_with_dqo else "-",
                    "X" if r.respects_autonomy else "-",
                    r.performance,
                )
                for r in self.rows
            ],
        )

    def to_dict(self) -> dict:
        """JSON-ready form: the rows plus the measuring Fig. 4 run."""
        return {
            "rows": [asdict(row) for row in self.rows],
            "fig4": {
                "normalised": _normalised(self.fig4),
                "runs": {
                    name: {"mechanism": name, **metrics}
                    for name, metrics in self.fig4.items()
                },
            },
        }


def _normalised(runs: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Each mechanism's mean response over QA-NT's (Figure 4's bars)."""
    reference = runs["qa-nt"]["mean_response_ms"]
    return {
        name: metrics["mean_response_ms"] / reference
        for name, metrics in runs.items()
    }


def performance_grade(normalised_response: float) -> str:
    """Bucket a normalised response time into the paper's grades."""
    if normalised_response <= 1.25:
        return "very good"
    if normalised_response <= 2.0:
        return "good"
    return "poor"


def run_table2(
    num_nodes: int = 100,
    horizon_ms: float = 120_000.0,
    seed: int = 0,
) -> Table2Result:
    """Regenerate Table 2, measuring performance via the Fig. 4 cells."""
    allocator_classes = default_mechanism_factories()
    # Figure 4's workload: 0.7 average load, the sweep's only point.
    runs = {
        name: fig4_cell(
            name, 0.7, 0, seed, num_nodes=num_nodes, horizon_ms=horizon_ms
        )
        for name in allocator_classes
    }
    normalised = _normalised(runs)
    rows = []
    for name, cls in allocator_classes.items():
        rows.append(
            Table2Row(
                mechanism=name,
                distributed=cls.distributed,
                workload_type=_WORKLOAD_TYPE[name],
                conflicts_with_dqo=name in _CONFLICTS_WITH_DQO,
                respects_autonomy=cls.respects_autonomy,
                performance=performance_grade(normalised[name]),
            )
        )
    # Markov: static-only and centralised; the paper grades it "excellent"
    # under the static workloads it requires (ablation A4 measures it).
    rows.append(
        Table2Row(
            mechanism="markov",
            distributed=MarkovAllocator.distributed,
            workload_type=_WORKLOAD_TYPE["markov"],
            conflicts_with_dqo=True,
            respects_autonomy=MarkovAllocator.respects_autonomy,
            performance="excellent (static only)",
        )
    )
    return Table2Result(rows=rows, fig4=runs)


register(
    ScenarioSpec(
        name="table2",
        title="Table 2 — qualitative mechanism comparison (measured)",
        runner=run_table2,
        scales={
            "small": ScalePreset(
                fixed={"num_nodes": 30, "horizon_ms": 60_000.0}
            ),
            "paper": ScalePreset(
                fixed={"num_nodes": 100, "horizon_ms": 60_000.0}
            ),
        },
    )
)
