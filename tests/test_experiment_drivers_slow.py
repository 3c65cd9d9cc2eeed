"""Scaled-down runs of the remaining experiment drivers (marked slow)."""

import math

import pytest

from repro.experiments.ablations import (
    run_lambda_sweep,
    run_partial_adoption,
    run_period_sweep,
    run_rounding_ablation,
    run_static_markov,
)
from repro.experiments.fig5 import run_fig5b
from repro.experiments.fig6 import run_fig6

pytestmark = pytest.mark.slow


class TestFig5bDriver:
    def test_shape_and_positivity(self):
        result = run_fig5b(
            frequencies_hz=(0.05, 1.0),
            num_nodes=16,
            horizon_ms=15_000.0,
            load_fraction=0.8,
            seed=1,
        )
        assert len(result.greedy_normalised) == 2
        assert all(r > 0 for r in result.greedy_normalised)
        assert "frequency" in result.render()

    def test_qant_never_collapses(self):
        # Worst case stays within 20% of Greedy at every frequency.
        result = run_fig5b(
            frequencies_hz=(0.05, 0.5, 2.0),
            num_nodes=30,
            horizon_ms=40_000.0,
            load_fraction=0.9,
            seed=0,
        )
        assert all(r > 0.8 for r in result.greedy_normalised)


class TestFig6Driver:
    def test_small_sweep(self):
        result = run_fig6(
            interarrivals_ms=(2_000.0, 10_000.0),
            num_nodes=12,
            num_relations=60,
            num_classes=8,
            max_queries=400,
            horizon_ms=60_000.0,
            seed=1,
        )
        assert len(result.greedy_normalised) == 2
        assert all(
            r > 0 and not math.isnan(r) for r in result.greedy_normalised
        )

    def test_overload_advantage_and_crossover_parity(self):
        result = run_fig6(
            interarrivals_ms=(1_000.0, 10_000.0, 17_000.0),
            num_nodes=30,
            num_relations=300,
            num_classes=30,
            max_queries=2_500,
            horizon_ms=200_000.0,
            seed=0,
        )
        by_gap = dict(zip(result.interarrivals_ms, result.greedy_normalised))
        # Overload regime: QA-NT ahead.
        assert by_gap[1_000.0] > 1.0
        # At/after the crossover: parity (within 15%).
        assert abs(by_gap[17_000.0] - 1.0) < 0.15

    def test_without_crossover_calibration(self):
        result = run_fig6(
            interarrivals_ms=(5_000.0,),
            num_nodes=12,
            num_relations=60,
            num_classes=8,
            max_queries=200,
            horizon_ms=40_000.0,
            crossover_ms=None,
            seed=1,
        )
        assert len(result.greedy_normalised) == 1


class TestAblationDrivers:
    def test_lambda_sweep_tradeoff(self):
        result = run_lambda_sweep(
            lambdas=(0.001, 0.02, 0.05),
            num_nodes=12,
            horizon_ms=15_000.0,
            seed=1,
        )
        # Fewer umpire iterations as lambda grows (among converged runs).
        assert result.tatonnement_iterations[0] > result.tatonnement_iterations[1]
        # The overshooting lambda leaves residual excess demand.
        assert result.tatonnement_residual[-1] > result.tatonnement_residual[0]
        assert all(r > 0 for r in result.qant_response_ms)

    def test_period_sweep_shapes(self):
        result = run_period_sweep(
            periods_ms=(250.0, 1000.0),
            num_nodes=12,
            horizon_ms=15_000.0,
            seed=1,
        )
        assert len(result.response_slow_dynamics_ms) == 2
        assert len(result.response_fast_dynamics_ms) == 2
        assert all(r > 0 for r in result.response_slow_dynamics_ms)

    def test_partial_adoption_monotone_gain(self):
        # Section 4's claim measured: full adoption at least matches none.
        result = run_partial_adoption(
            adoption_fractions=(0.0, 0.5, 1.0),
            num_nodes=20,
            horizon_ms=30_000.0,
            seed=0,
        )
        assert result.monotone_gain

    def test_static_markov_qant_competitive(self):
        # On static load QA-NT "comes close" to the stochastic planner.
        result = run_static_markov(num_nodes=20, horizon_ms=60_000.0, seed=0)
        assert result.response_ms["qa-nt"] <= 3.0 * result.response_ms["markov"]
        assert result.response_ms["markov"] > 0

    def test_rounding_ablation_grid(self):
        result = run_rounding_ablation(
            num_nodes=12, horizon_ms=12_000.0, seed=1
        )
        assert set(result.response_ms) == {
            "greedy-int",
            "greedy-carry",
            "proportional",
        }
        for solver, by_load in result.response_ms.items():
            assert set(by_load) == {"light (50%)", "heavy (150%)"}
            assert all(v > 0 for v in by_load.values())
        assert "supply solver" in result.render()
