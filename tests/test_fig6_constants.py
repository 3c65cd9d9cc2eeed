"""``tools/fig6_constants.py`` on stubbed cells: every cell of the grid
runs under its own allowance factor and threshold, drained where its
section says, and the constants are restored after each."""

import math
import pathlib
import sys

import numpy as np
import pytest

from repro.allocation import QantAllocator
from repro.core import qant as core_qant
from repro.experiments import fig5, fig6
from repro.experiments.setups import two_query_world
from repro.sim import FederationConfig, build_federation
from repro.sim.federation import DrainCapExceeded

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tools"))

import fig6_constants  # noqa: E402

_SHIPPED = (
    core_qant.DEFAULT_ALLOWANCE_FACTOR,
    fig6._PAIR["qa-nt"],
    fig5._PAIR["qa-nt"],
    fig6.FederationConfig,
)


def _stub(module):
    """A cell that reports the constants it ran under as its numbers."""

    def cell(mechanism, point, point_index, seed, **fixed):
        factor = core_qant.DEFAULT_ALLOWANCE_FACTOR
        threshold = module._PAIR["qa-nt"]()._activation_threshold
        drain_ms = fig6.FederationConfig().drain_ms
        if mechanism == "qa-nt" and (factor, threshold, point) == (8.0, None, 0.5):
            raise DrainCapExceeded(3)
        scale = 1.0 if mechanism == "greedy" else factor * (threshold or 0.5)
        return {
            "mean_response_ms": 100.0 / scale,
            "messages_per_query": 6.0,
            "drain_ms": drain_ms,
            "fixed": sorted(fixed),
        }

    return cell


@pytest.fixture
def stubbed(monkeypatch):
    monkeypatch.setattr(fig6, "fig6_cell", _stub(fig6))
    monkeypatch.setattr(fig5, "fig5a_cell", _stub(fig5))


@pytest.mark.parametrize("jobs", [1, 2])
def test_grid_runs_every_cell_under_its_constants(stubbed, jobs):
    artifact = fig6_constants.run_grid((0, 7), jobs=jobs)
    assert (
        core_qant.DEFAULT_ALLOWANCE_FACTOR,
        fig6._PAIR["qa-nt"],
        fig5._PAIR["qa-nt"],
        fig6.FederationConfig,
    ) == _SHIPPED
    cells = artifact["cells"]
    points = sum(len(s[1]) for s in fig6_constants.SECTIONS.values())
    assert len(cells) == points * 2 * (1 + 4 * 2)
    for cell in cells:
        drained = fig6_constants.SECTIONS[cell["section"]][3]
        if "error" in cell:
            assert (cell["factor"], cell["threshold"], cell["point"]) == (8.0, None, 0.5)
            continue
        assert cell["drain_ms"] == (math.inf if drained else 60_000.0)
        if cell["mechanism"] == "greedy":
            assert cell["mean_response_ms"] == 100.0
            assert cell["factor"] is cell["threshold"] is None
        else:
            scale = cell["factor"] * (cell["threshold"] or 0.5)
            assert cell["mean_response_ms"] == 100.0 / scale
    small = artifact["ratios"]["fig6_small"]
    assert small["f4,toff"]["17000.0"] == {
        "per_seed": [2.0, 2.0], "mean": 2.0, "stdev": 0.0,
        "messages_per_query": 6.0,
    }
    assert small["f2,t2"]["10000.0"]["mean"] == 4.0
    failed = artifact["ratios"]["fig5a_subcapacity"]["f8,toff"]["0.5"]
    assert failed["per_seed"] == [None, None] and failed["mean"] is None
    table = fig6_constants.render(artifact)
    assert "f8,toff" in table and "x" in table.split("fig5a_subcapacity")[1]


def test_help_names_the_constants(capsys):
    with pytest.raises(SystemExit) as done:
        fig6_constants.main(["--help"])
    assert done.value.code == 0
    assert "deployment constants" in capsys.readouterr().out


def test_a_cell_failing_otherwise_fails_the_grid(monkeypatch):
    """Only a drain-cap error is a cell's recorded outcome; any other
    error is a fault and stops the grid rather than reading as ``x``."""

    def cell(mechanism, point, point_index, seed, **fixed):
        raise RuntimeError("not a drain cap")

    monkeypatch.setattr(fig6, "fig6_cell", cell)
    task = ("fig6_small", 17_000.0, 0, 0, "qa-nt", 2.0, 2.0)
    with pytest.raises(RuntimeError, match="not a drain cap"):
        fig6_constants.run_cell(task)
    assert core_qant.DEFAULT_ALLOWANCE_FACTOR == _SHIPPED[0]


def test_the_factor_reaches_a_bound_allocator():
    """``constants`` sets ``f`` where the allocator's allowance rule
    reads it, so the cells it wraps really run at ``f``."""
    world = two_query_world(5, 0)
    period = FederationConfig().period_ms

    def headroom():
        allocator = QantAllocator()
        build_federation(
            world.specs,
            world.placement,
            world.classes,
            world.cost_model,
            allocator,
            FederationConfig(),
        )
        return allocator._allowances - period

    shipped = headroom()
    with fig6_constants.constants(8.0, None):
        patched = headroom()
    np.testing.assert_allclose(patched, 4.0 * shipped)
    assert shipped.min() > 0.0
