"""Experiment drivers: one module per paper table/figure plus ablations.

The per-experiment index (experiment id -> workload -> modules -> CLI id)
lives in DESIGN.md; measured-vs-paper results live in EXPERIMENTS.md.
"""

from .ablations import (
    run_lambda_sweep,
    run_partial_adoption,
    run_period_sweep,
    run_rounding_ablation,
    run_static_markov,
)
from .chaos import CHAOS_GRID, chaos_cell
from .failures import FailureResult, run_failures
from .runner import (
    CellResult,
    MetricStats,
    SweepResult,
    derive_cell_seed,
    expand_cells,
    replicate_seeds,
    run_single,
    run_sweep,
    single_run_payload,
    write_json_artifact,
)
from .spec import (
    REGISTRY,
    ExperimentRegistry,
    ScalePreset,
    ScenarioSpec,
    SweepCell,
    register,
)
from .fig1 import Fig1Result, run_fig1
from .fig2 import Fig2Result, run_fig2
from .fig3 import Fig3Result, run_fig3
from .fig4 import Fig4Result, run_fig4
from .fig5 import (
    Fig5aResult,
    Fig5bResult,
    Fig5cResult,
    run_fig5a,
    run_fig5b,
    run_fig5c,
)
from .fig6 import Fig6Result, run_fig6
from .fig7 import Fig7Result, run_fig7
from .replication import Replication, ratio_confident, replicate
from .scaling import quantise_trace, scaling_cell
from .setups import (
    World,
    run_mechanisms,
    sinusoid_trace_for_load,
    two_query_world,
    zipf_trace_for_world,
    zipf_world,
)
from .table2 import Table2Result, run_table2
from .table3 import Table3Result, run_table3

__all__ = [
    "CHAOS_GRID",
    "CellResult",
    "ExperimentRegistry",
    "chaos_cell",
    "FailureResult",
    "Fig1Result",
    "MetricStats",
    "REGISTRY",
    "Replication",
    "ScalePreset",
    "ScenarioSpec",
    "SweepCell",
    "SweepResult",
    "derive_cell_seed",
    "expand_cells",
    "register",
    "replicate_seeds",
    "run_single",
    "run_sweep",
    "single_run_payload",
    "write_json_artifact",
    "quantise_trace",
    "ratio_confident",
    "replicate",
    "run_failures",
    "scaling_cell",
    "Fig2Result",
    "Fig3Result",
    "Fig4Result",
    "Fig5aResult",
    "Fig5bResult",
    "Fig5cResult",
    "Fig6Result",
    "Fig7Result",
    "Table2Result",
    "Table3Result",
    "World",
    "run_fig1",
    "run_fig2",
    "run_fig3",
    "run_fig4",
    "run_fig5a",
    "run_fig5b",
    "run_fig5c",
    "run_fig6",
    "run_fig7",
    "run_lambda_sweep",
    "run_mechanisms",
    "run_partial_adoption",
    "run_period_sweep",
    "run_rounding_ablation",
    "run_static_markov",
    "run_table2",
    "run_table3",
    "sinusoid_trace_for_load",
    "two_query_world",
    "zipf_trace_for_world",
    "zipf_world",
]
