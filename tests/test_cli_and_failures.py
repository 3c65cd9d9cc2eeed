"""Tests for the CLI and the node-failure extension experiment."""

import argparse
import math
import pathlib
import re

import pytest

from repro import cli
from repro.cli import _build_parser, main
from repro.experiments.failures import failed_node_ids, failures_cell
from repro.experiments.spec import REGISTRY
from repro.query import MachineSpec
from repro.sim import Simulator
from repro.sim.node import SimulatedNode
from sized_sweep import sized_sweep

ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestCli:
    def test_list_prints_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.split()
        assert set(out) == set(REGISTRY.names())

    def test_run_fig1(self, capsys):
        assert main(["run", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "662.5" in out and "431.25" in out

    def test_run_fig2(self, capsys):
        assert main(["run", "fig2"]) == 0
        assert "demand d" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "nonexistent"])


#: Documents whose shell recipes name ``python -m repro <command>``.
_RECIPE_DOCS = ("README.md", "EXPERIMENTS.md", "DESIGN.md")
_RECIPE = re.compile(r"python3? -m repro[ \t]+([A-Za-z][\w-]*)")


def _subcommands():
    (commands,) = [
        action
        for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return set(commands.choices)


class TestDocumentedCommands:
    """Every ``python -m repro <command>`` a document shows is a real one.

    A removed or renamed subcommand would otherwise leave its recipes
    behind in the docs, where a reader finds them only by running them.
    """

    @pytest.mark.parametrize(
        "source", _RECIPE_DOCS + ("repro.cli docstring",)
    )
    def test_recipes_name_subcommands_the_parser_accepts(self, source):
        if source in _RECIPE_DOCS:
            text = (ROOT / source).read_text()
        else:
            text = cli.__doc__
        named = _RECIPE.findall(text)
        assert named, "no `python -m repro <command>` recipe in %s" % source
        assert sorted(set(named) - _subcommands()) == []

    def test_the_cli_is_list_and_run(self):
        assert _subcommands() == {"list", "run"}
        with pytest.raises(SystemExit) as exit_info:
            main(["profile", "fig1"])
        assert exit_info.value.code == 2


class TestNodeOutages:
    def make_node(self):
        sim = Simulator()
        node = SimulatedNode(
            node_id=0,
            spec=MachineSpec(),
            relations=frozenset({0}),
            class_costs_ms=[100.0],
            simulator=sim,
        )
        return sim, node

    def test_available_by_default(self):
        __, node = self.make_node()
        assert node.is_available()

    def test_unavailable_during_outage(self):
        sim, node = self.make_node()
        node.schedule_outage(10.0, 20.0)
        assert node.is_available(5.0)
        assert not node.is_available(10.0)
        assert not node.is_available(19.9)
        assert node.is_available(20.0)

    def test_multiple_outages(self):
        __, node = self.make_node()
        node.schedule_outage(10.0, 20.0)
        node.schedule_outage(30.0, 40.0)
        assert node.is_available(25.0)
        assert not node.is_available(35.0)

    def test_invalid_outage_rejected(self):
        __, node = self.make_node()
        with pytest.raises(ValueError):
            node.schedule_outage(20.0, 10.0)
        with pytest.raises(ValueError):
            node.schedule_outage(-5.0, 10.0)


@pytest.mark.slow
class TestFailureExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return sized_sweep(
            "failures",
            (0.3,),
            seeds=(2,),
            num_nodes=20,
            outage_window_ms=(10_000.0, 20_000.0),
            horizon_ms=30_000.0,
            load_fraction=0.5,
        )

    def test_failed_nodes_recorded(self):
        failed = failed_node_ids(range(20), 0.3)
        assert failed
        assert all(nid % 3 == 0 for nid in failed)

    def test_all_phases_measured(self, result):
        for mechanism in ("qa-nt", "greedy"):
            for phase in ("before_ms", "during_ms", "after_ms"):
                assert not math.isnan(result.stats(mechanism, 0, phase).mean)

    def test_outage_degrades_response(self, result):
        # Losing 1/3 of the nodes under load must hurt.
        for mechanism in ("qa-nt", "greedy"):
            assert result.stats(mechanism, 0, "degradation").mean > 1.0

    def test_recovery_after_outage(self):
        result = sized_sweep(
            "failures", (0.3,), num_nodes=30, load_fraction=0.8
        )

        def phase(mechanism, name):
            return result.stats(mechanism, 0, name + "_ms").mean

        for mechanism in ("qa-nt", "greedy"):
            assert phase(mechanism, "after") < phase(mechanism, "during")
        # Section 1: a good allocator minimises how long the
        # unavailability lingers -- QA-NT's admission control is back to
        # near-baseline once the nodes return; Greedy is still draining.
        assert phase("qa-nt", "after") <= 1.5 * phase("qa-nt", "before")

    def test_validation(self):
        with pytest.raises(ValueError):
            failures_cell("qa-nt", 0.0, 0, 0)
        with pytest.raises(ValueError):
            failures_cell("qa-nt", 1.0, 0, 0)
        with pytest.raises(ValueError):
            failures_cell(
                "qa-nt", 0.3, 0, 0, outage_window_ms=(50_000.0, 10_000.0)
            )
        with pytest.raises(ValueError):
            failures_cell(
                "qa-nt", 0.3, 0, 0, outage_window_ms=(20_000.0, 70_000.0)
            )
