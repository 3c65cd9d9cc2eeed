"""Scaled-down runs of the registered fig5b / fig6 / ablation sweeps (slow)."""

import functools
import math

import pytest

from repro.experiments import fig6
from repro.sim import FederationConfig
from sized_sweep import sized_sweep

pytestmark = pytest.mark.slow


def _means(stats):
    return [s.mean for s in stats]


class TestFig5bDriver:
    def test_shape_and_positivity(self):
        result = sized_sweep(
            "fig5b",
            (0.05, 1.0),
            seeds=(1,),
            num_nodes=16,
            horizon_ms=15_000.0,
            load_fraction=0.8,
        )
        ratios = _means(result.ratio_series())
        assert len(ratios) == 2
        assert all(r > 0 for r in ratios)
        assert "frequency" in result.render()

    def test_qant_never_collapses(self):
        # Worst case stays within 20% of Greedy at every frequency.
        result = sized_sweep(
            "fig5b",
            (0.05, 0.5, 2.0),
            num_nodes=30,
            horizon_ms=40_000.0,
            load_fraction=0.9,
        )
        assert all(r > 0.8 for r in _means(result.ratio_series()))


class TestFig6Driver:
    def test_small_sweep(self):
        result = sized_sweep(
            "fig6",
            (2_000.0, 10_000.0),
            seeds=(1,),
            num_nodes=12,
            num_relations=60,
            num_classes=8,
            max_queries=400,
            horizon_ms=60_000.0,
        )
        ratios = _means(result.ratio_series())
        assert len(ratios) == 2
        assert all(r > 0 and not math.isnan(r) for r in ratios)

    def test_overload_advantage_and_crossover_parity(self):
        result = sized_sweep(
            "fig6",
            (1_000.0, 10_000.0, 17_000.0),
            num_nodes=30,
            num_relations=300,
            num_classes=30,
            max_queries=2_500,
            horizon_ms=200_000.0,
        )
        by_gap = dict(zip(result.points, _means(result.ratio_series())))
        # Overload regime: QA-NT ahead.
        assert by_gap[1_000.0] > 1.0
        # At/after the crossover: parity (within 15%).
        assert abs(by_gap[17_000.0] - 1.0) < 0.15

    @pytest.mark.xfail(
        strict=True,
        reason="known deviation 8 (EXPERIMENTS.md): scored drained to "
        "empty, QA-NT trails greedy at the crossover (0.80 at seed 0)",
    )
    def test_crossover_parity_drained_to_empty(self, monkeypatch):
        # The parity claim above, on the same cells, with every query of
        # the trace scored: the cells drain to empty instead of stopping
        # 60 s after the horizon.
        monkeypatch.setattr(
            fig6,
            "FederationConfig",
            functools.partial(FederationConfig, drain_ms=math.inf),
        )
        result = sized_sweep(
            "fig6",
            (1_000.0, 10_000.0, 17_000.0),
            num_nodes=30,
            num_relations=300,
            num_classes=30,
            max_queries=2_500,
            horizon_ms=200_000.0,
        )
        by_gap = dict(zip(result.points, _means(result.ratio_series())))
        assert abs(by_gap[17_000.0] - 1.0) < 0.15

    def test_without_crossover_calibration(self):
        result = sized_sweep(
            "fig6",
            (5_000.0,),
            seeds=(1,),
            num_nodes=12,
            num_relations=60,
            num_classes=8,
            max_queries=200,
            horizon_ms=40_000.0,
            crossover_ms=None,
        )
        assert len(result.ratio_series()) == 1


class TestAblationDrivers:
    def test_lambda_sweep_tradeoff(self):
        result = sized_sweep(
            "ablation-lambda",
            (0.001, 0.02, 0.05),
            seeds=(1,),
            num_nodes=12,
            horizon_ms=15_000.0,
        )
        iterations = _means(result.series("qa-nt", "umpire_iterations"))
        residual = _means(result.series("qa-nt", "umpire_residual"))
        # Fewer umpire iterations as lambda grows (among converged runs).
        assert iterations[0] > iterations[1]
        # The overshooting lambda leaves residual excess demand.
        assert residual[-1] > residual[0]
        assert all(r > 0 for r in _means(result.series("qa-nt")))

    def test_period_sweep_shapes(self):
        result = sized_sweep(
            "ablation-period",
            (250.0, 1000.0),
            seeds=(1,),
            num_nodes=12,
            horizon_ms=15_000.0,
        )
        slow = _means(result.series("qa-nt@0.05Hz"))
        assert len(slow) == 2
        assert len(result.series("qa-nt@1Hz")) == 2
        assert all(r > 0 for r in slow)

    def test_partial_adoption_monotone_gain(self):
        # Section 4's claim measured: full adoption at least matches none.
        result = sized_sweep(
            "ablation-partial",
            (0.0, 0.5, 1.0),
            num_nodes=20,
            horizon_ms=30_000.0,
        )
        response = _means(result.series("qa-nt"))
        assert response[-1] <= response[0]

    def test_static_markov_qant_competitive(self):
        # On static load QA-NT "comes close" to the stochastic planner.
        result = sized_sweep(
            "ablation-markov", (0.7,), num_nodes=20, horizon_ms=60_000.0
        )
        qant, markov = (result.stats(m, 0).mean for m in ("qa-nt", "markov"))
        assert qant <= 3.0 * markov
        assert markov > 0

    def test_rounding_ablation_grid(self):
        # Light (50 %) and heavy (150 %) load under each supply solver.
        result = sized_sweep(
            "ablation-rounding",
            (0.5, 1.5),
            seeds=(1,),
            num_nodes=12,
            horizon_ms=12_000.0,
        )
        assert set(result.mechanisms) == {
            "greedy-int",
            "greedy-carry",
            "proportional",
        }
        for solver in result.mechanisms:
            by_load = _means(result.series(solver))
            assert len(by_load) == 2
            assert all(v > 0 for v in by_load)
        assert "proportional mean_response_ms" in result.render()
