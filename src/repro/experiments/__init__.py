"""Experiment drivers: one module per paper table/figure plus ablations.

The per-experiment index (experiment id -> workload -> modules -> CLI id)
lives in DESIGN.md; measured-vs-paper results live in EXPERIMENTS.md.
"""

# The sweep-only driver modules (ablations, failures, fig4, fig6) are
# imported for their side effect: each registers its ScenarioSpec.
from . import ablations, failures, fig4, fig6
from .chaos import CHAOS_GRID, chaos_cell
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
from .fig5 import Fig5cResult, run_fig5c
from .fig7 import Fig7Result, run_fig7
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
    "Fig1Result",
    "MetricStats",
    "REGISTRY",
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
    "scaling_cell",
    "Fig2Result",
    "Fig3Result",
    "Fig5cResult",
    "Fig7Result",
    "Table2Result",
    "Table3Result",
    "World",
    "run_fig1",
    "run_fig2",
    "run_fig3",
    "run_fig5c",
    "run_fig7",
    "run_mechanisms",
    "run_table2",
    "run_table3",
    "sinusoid_trace_for_load",
    "two_query_world",
    "zipf_trace_for_world",
    "zipf_world",
]
