"""Miscellaneous coverage: smaller public APIs exercised end to end."""

import math

import pytest

from repro.core import QantParameters
from repro.dbms import DbmsQueryOutcome, DbmsRunResult
from repro.experiments.fig7 import Fig7Result
from repro.experiments.table2 import Table2Result, Table2Row
from repro.query import MachineSpec
from repro.sim import LatencyModel, Simulator
from repro.sim.network import Network


class TestDbmsResultTypes:
    def outcome(self, total_s=1.0):
        return DbmsQueryOutcome(
            qid=0,
            class_index=0,
            node_id=1,
            arrival_s=10.0,
            assigned_s=10.1,
            finished_s=10.0 + total_s,
        )

    def test_outcome_times(self):
        outcome = self.outcome()
        assert outcome.assign_ms == pytest.approx(100.0)
        assert outcome.total_ms == pytest.approx(1000.0)

    def test_run_result_means(self):
        run = DbmsRunResult(mechanism="greedy")
        run.outcomes.append(self.outcome(1.0))
        run.outcomes.append(self.outcome(3.0))
        assert run.mean_total_ms == pytest.approx(2000.0)
        assert run.mean_assign_ms == pytest.approx(100.0)

    def test_empty_run_result_is_nan(self):
        run = DbmsRunResult(mechanism="qa-nt")
        assert math.isnan(run.mean_total_ms)
        assert math.isnan(run.mean_assign_ms)


class TestFig7Result:
    def make(self, greedy_total, qant_total):
        def run(mechanism, total_s):
            result = DbmsRunResult(mechanism=mechanism)
            result.outcomes.append(
                DbmsQueryOutcome(
                    qid=0,
                    class_index=0,
                    node_id=0,
                    arrival_s=0.0,
                    assigned_s=0.01,
                    finished_s=total_s,
                )
            )
            return result

        return Fig7Result(
            runs={
                ("greedy", 30.0): run("greedy", greedy_total),
                ("qa-nt", 30.0): run("qa-nt", qant_total),
            }
        )

    def test_qant_beats_greedy(self):
        assert self.make(2.0, 1.0).qant_beats_greedy(30.0)
        assert not self.make(1.0, 2.0).qant_beats_greedy(30.0)

    def test_render_lists_all_runs(self):
        text = self.make(2.0, 1.0).render()
        assert "greedy" in text and "qa-nt" in text


class TestTable2Result:
    def test_row_lookup(self):
        row = Table2Row(
            mechanism="qa-nt",
            distributed=True,
            workload_type="dynamic",
            conflicts_with_dqo=False,
            respects_autonomy=True,
            performance="very good",
        )
        table = Table2Result(rows=[row], fig4=None)
        assert table.row("qa-nt") is row
        with pytest.raises(KeyError):
            table.row("nope")


class TestNetworkDeterminism:
    def test_same_seed_same_latency_sequence(self):
        a = Network(Simulator(), LatencyModel(1.0, 2.0), seed=5)
        b = Network(Simulator(), LatencyModel(1.0, 2.0), seed=5)
        assert [a.round_trip_ms(2) for __ in range(5)] == [
            b.round_trip_ms(2) for __ in range(5)
        ]


class TestQantParameterDefaults:
    def test_defaults_are_the_documented_engineering_choices(self):
        params = QantParameters()
        assert params.supply_method == "proportional"
        assert params.carry_over is True
        assert params.adjustment == pytest.approx(0.1)

    def test_machine_spec_reference_values(self):
        spec = MachineSpec()
        assert spec.cpu_ghz == pytest.approx(2.3)
        assert spec.io_mbps == pytest.approx(42.5)


class TestCliAblationEntries:
    def test_fast_ablation_experiments_render(self, capsys):
        # The lambda ablation is the fastest registry entry that touches
        # real simulation; run it end to end through the CLI.
        from repro.cli import main

        assert main(["run", "ablation-lambda"]) == 0
        assert "lambda" in capsys.readouterr().out
