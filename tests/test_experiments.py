"""Tests for the experiment drivers (exact paper numbers + scaled runs)."""

import math
import os
import pathlib
import subprocess
import sys

import pytest

from repro.experiments.fig1 import lb_schedule, run_fig1
from repro.experiments.fig2 import run_fig2
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig5 import run_fig5c
from repro.experiments.reporting import format_series, format_table
from repro.experiments.setups import zipf_world
from repro.experiments.table2 import performance_grade, run_table2
from repro.experiments.table3 import run_table3
from sized_sweep import sized_sweep


class TestFig1ExactNumbers:
    """The introduction's example must reproduce to the millisecond."""

    def test_lb_average_response_is_662ms(self):
        assert run_fig1().lb_mean_response_ms == pytest.approx(662.5)

    def test_qa_average_response_is_431ms(self):
        assert run_fig1().qa_mean_response_ms == pytest.approx(431.25)

    def test_lb_busy_until_900_and_950(self):
        assert run_fig1().lb_busy_until_ms == (900.0, 950.0)

    def test_qa_busy_until_600_and_900(self):
        assert run_fig1().qa_busy_until_ms == (600.0, 900.0)

    def test_lb_is_54_percent_slower(self):
        assert run_fig1().slowdown == pytest.approx(0.536, abs=0.01)

    def test_lb_assignment_narrative(self):
        # q1->N1, q1->N2, three q2->N1, one q2->N2, two q2->N1 (Section 1).
        assert lb_schedule() == [0, 1, 0, 0, 0, 1, 0, 0]

    def test_qa_dominates_and_is_pareto_optimal(self):
        result = run_fig1()
        assert result.qa_dominates_lb
        assert result.qa_is_pareto_optimal

    def test_render_contains_headline_numbers(self):
        text = run_fig1().render()
        assert "662.5" in text and "431.25" in text


def test_quickstart_prints_its_expected_walkthrough():
    """``examples/quickstart.py`` (Fig. 1, then two listing agents
    discovering its QA allocation) prints ``examples/expected/
    quickstart.txt`` byte for byte, as ``make examples-check`` diffs."""
    root = pathlib.Path(__file__).resolve().parent.parent
    completed = subprocess.run(
        [sys.executable, str(root / "examples" / "quickstart.py")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    expected = (root / "examples" / "expected" / "quickstart.txt").read_text()
    assert completed.stdout == expected


class TestFig2:
    def test_aggregate_demand_is_2_6(self):
        result = run_fig2()
        assert result.aggregate_demand.components == (2.0, 6.0)

    def test_consumption_totals_match_paper(self):
        result = run_fig2()
        # LB: N1 and N2 consumed 2 and 1 queries; QA: 5 and 1.
        assert result.lb_aggregate_consumption.total() == 3.0
        assert result.qa_aggregate_consumption.total() == 6.0

    def test_demand_outside_supply_region(self):
        assert run_fig2().demand_is_infeasible

    def test_qa_consumption_feasible(self):
        result = run_fig2()
        point = tuple(int(x) for x in result.qa_aggregate_consumption)
        assert point in result.supply_region


class TestFig3:
    def test_series_shapes(self):
        result = run_fig3(horizon_ms=20_000.0, seed=1)
        assert len(result.q1_per_bucket) == 40
        assert len(result.times_s) == 40

    def test_q1_roughly_twice_q2(self):
        result = run_fig3(horizon_ms=200_000.0, q1_peak_rate_per_ms=0.05, seed=2)
        q1, q2 = sum(result.q1_per_bucket), sum(result.q2_per_bucket)
        assert q1 == pytest.approx(2 * q2, rel=0.25)
        # The sinusoid actually swings: some buckets near zero, some heavy.
        assert min(result.q1_per_bucket) < max(result.q1_per_bucket)

    def test_render(self):
        text = run_fig3(horizon_ms=5_000.0).render()
        assert "Q1 arrivals" in text and "Q2 arrivals" in text


@pytest.fixture(scope="module")
def small_table2():
    return run_table2(num_nodes=20, horizon_ms=30_000.0, seed=0)


@pytest.mark.slow
class TestFig4Scaled:
    @pytest.fixture(scope="class")
    def result(self):
        return sized_sweep("fig4", (0.7,), num_nodes=20, horizon_ms=40_000.0)

    @pytest.fixture(scope="class")
    def normalised(self, result):
        reference = result.stats("qa-nt", 0).mean
        return {
            name: result.stats(name, 0).mean / reference
            for name in result.mechanisms
        }

    def test_qant_normalised_is_one(self, small_table2):
        normalised = small_table2.to_dict()["fig4"]["normalised"]
        assert normalised["qa-nt"] == pytest.approx(1.0)

    def test_market_mechanisms_beat_load_balancers(self, normalised):
        for fast in ("qa-nt", "greedy"):
            for slow in ("bnqrd", "two-probes", "random", "round-robin"):
                assert normalised[fast] < normalised[slow]

    def test_random_and_round_robin_worst(self, normalised):
        worst_two = sorted(normalised, key=normalised.get)[-2:]
        assert set(worst_two) == {"random", "round-robin"}

    def test_qant_needs_most_messages(self, result):
        messages = {
            name: result.stats(name, 0, "messages").mean
            for name in result.mechanisms
        }
        assert all(messages["qa-nt"] >= count for count in messages.values())


@pytest.mark.slow
class TestFig5Scaled:
    def test_fig5a_overload_favours_qant(self):
        result = sized_sweep(
            "fig5a", (0.5, 2.0), num_nodes=20, horizon_ms=15_000.0
        )
        light, heavy = (ratio.mean for ratio in result.ratio_series())
        # Light load: near parity (within 10%); overload: QA-NT wins.
        assert light == pytest.approx(1.0, abs=0.1)
        assert heavy > 1.0

    def test_fig5a_overload_win_is_seed_robust(self):
        """QA-NT's overload advantage survives re-seeding (3 seeds)."""
        result = sized_sweep(
            "fig5a", (2.0,), seeds=(0, 1, 2), num_nodes=20, horizon_ms=15_000.0
        )
        wins = [ratio > 1.0 for ratio in result.ratio_series()[0].values]
        assert sum(wins) * 2 > len(wins)

    def test_fig5c_series_lengths_match(self):
        result = run_fig5c(num_nodes=20, horizon_ms=10_000.0, seed=0)
        assert (
            len(result.q1_arrivals)
            == len(result.q1_executed_qant)
            == len(result.q1_executed_greedy)
        )
        assert result.tracking_error(result.q1_arrivals) == 0.0

    def test_fig5c_qant_tracks_arrivals(self):
        # Near capacity QA-NT follows the Q1 arrival curve at least as
        # well as Greedy (loosely: a single window is noisy).
        result = run_fig5c(num_nodes=30, horizon_ms=15_000.0, seed=0)
        assert sum(result.q1_arrivals) > 0
        qant_err = result.tracking_error(result.q1_executed_qant)
        greedy_err = result.tracking_error(result.q1_executed_greedy)
        assert qant_err <= greedy_err * 1.5


class TestTables:
    def test_performance_grades(self):
        assert performance_grade(1.0) == "very good"
        assert performance_grade(1.5) == "good"
        assert performance_grade(5.0) == "poor"

    @pytest.mark.slow
    def test_table2_static_columns(self, small_table2):
        qant = small_table2.row("qa-nt")
        assert qant.distributed and qant.respects_autonomy
        assert not qant.conflicts_with_dqo
        assert qant.performance == "very good"
        for name in ("random", "round-robin"):
            assert small_table2.row(name).performance == "poor"
        greedy = small_table2.row("greedy")
        assert not greedy.respects_autonomy
        markov = small_table2.row("markov")
        assert markov.workload_type == "static"
        assert not markov.distributed
        assert "mechanism" in small_table2.render()

    def test_table3_measures_generated_world(self, tiny_zipf_world):
        result = run_table3(world=tiny_zipf_world)
        assert result.num_nodes == 12
        assert result.num_relations == 60
        assert result.num_classes == 8
        assert result.avg_mirrors > 1.0
        assert result.avg_best_execution_ms > 0
        assert "parameter" in result.render()

    def test_table3_reproduces_paper_dataset_statistics(self):
        world = zipf_world(
            num_nodes=30, num_relations=300, num_classes=30, seed=0
        )
        result = run_table3(world=world)
        assert result.avg_relation_size_mb == pytest.approx(10.5, rel=0.1)
        assert result.avg_mirrors == pytest.approx(5.0, rel=0.1)
        assert result.avg_relations_per_node == pytest.approx(50.0, rel=0.1)
        assert result.avg_best_execution_ms == pytest.approx(2000.0, rel=0.05)
        assert result.cpu_range_ghz[0] >= 1.0
        assert result.cpu_range_ghz[1] <= 3.5

    def test_table3_requires_catalog(self, tiny_two_query_world):
        with pytest.raises(ValueError):
            run_table3(world=tiny_two_query_world)


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(("a", "bb"), [(1, 2.5), ("x", "y")])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_format_table_row_width_check(self):
        with pytest.raises(ValueError):
            format_table(("a",), [(1, 2)])

    def test_format_series(self):
        text = format_series("s", [1, 2], [3.0, 4.0])
        assert "3.000" in text

    def test_format_series_length_check(self):
        with pytest.raises(ValueError):
            format_series("s", [1], [1, 2])


class TestWorldBuilders:
    def test_two_query_world_eligibility(self, tiny_two_query_world):
        world = tiny_two_query_world
        q1_candidates = world.classes[0].candidate_nodes(world.placement)
        q2_candidates = world.classes[1].candidate_nodes(world.placement)
        assert len(q1_candidates) == world.num_nodes
        assert len(q2_candidates) == world.num_nodes // 2

    def test_two_query_world_cost_matrix(self, tiny_two_query_world):
        matrix = tiny_two_query_world.cost_matrix()
        # Q2 costs inf exactly on the odd nodes.
        for node_id, row in enumerate(matrix):
            assert not math.isinf(row[0])
            assert math.isinf(row[1]) == (node_id % 2 == 1)

    def test_capacity_positive(self, tiny_two_query_world):
        assert tiny_two_query_world.capacity_qpms([2.0, 1.0]) > 0

    def test_zipf_world_classes_have_candidates(self, tiny_zipf_world):
        world = tiny_zipf_world
        for qc in world.classes:
            assert qc.candidate_nodes(world.placement)
