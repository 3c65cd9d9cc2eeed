"""``tools/cpu_scaling.py``: CPU-list parsing, the speedup statistics and
the alternation of the two sets.

The tool's subprocess seam (``run_once``) is stubbed, so nothing here
runs the benchmark or changes any process's CPU affinity.
"""

import argparse
import importlib.util
import json
import os
import pathlib

import pytest

_TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "cpu_scaling.py"


@pytest.fixture
def cpu_scaling(monkeypatch):
    # As when the script runs: its own directory is on the path.
    monkeypatch.syspath_prepend(str(_TOOL.parent))
    spec = importlib.util.spec_from_file_location("cpu_scaling", _TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    benchmark = json.loads((tool.REPO / "BENCHMARK.json").read_text())
    allowed = frozenset(os.sched_getaffinity(0))
    calls = []

    def run_once(tree, workload, seed, seconds, cpus):
        """Set B runs every "higher is better" metric at twice set A's
        value and every "lower is better" one at half, times a factor
        that grows by pair; the ``sim_*`` rows read the same on both."""
        assert tree == tool.REPO
        calls.append(cpus)
        on_b = cpus == allowed
        pair = (len(calls) - 1) // 2
        metrics = {}
        for n, row in enumerate(benchmark["end_to_end"]):
            value = (1 + n) * (1 + pair)
            if not row["name"].startswith("sim_") and on_b:
                value *= 2.0 if row["better"] == "higher" else 0.5
            metrics[row["name"]] = {"value": value, "unit": row["unit"]}
        return {"attempted": 3, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(tool, "run_once", run_once)
    tool.calls = calls
    tool.allowed = allowed
    return tool


@pytest.mark.parametrize(
    "text, cpus",
    [("0", {0}), ("0,2", {0, 2}), ("0-3,6", {0, 1, 2, 3, 6}), (" 1 , 1-2", {1, 2})],
)
def test_cpu_lists_parse(cpu_scaling, text, cpus):
    assert cpu_scaling.parse_cpus(text) == frozenset(cpus)


@pytest.mark.parametrize("text", ["", "a", "1-", "-1", "3-1", "0,,1", "1.5"])
def test_malformed_cpu_lists_are_refused(cpu_scaling, text):
    with pytest.raises(argparse.ArgumentTypeError):
        cpu_scaling.parse_cpus(text)


def test_speedup_is_oriented_towards_better(cpu_scaling):
    higher = {"better": "higher"}
    lower = {"better": "lower"}
    assert cpu_scaling.speedup(higher, 100.0, 150.0) == 1.5
    assert cpu_scaling.speedup(lower, 0.3, 0.2) == pytest.approx(1.5)
    assert cpu_scaling.speedup(lower, 0.2, 0.3) == pytest.approx(2 / 3)


def test_quartiles_of_speedups(cpu_scaling):
    assert cpu_scaling.quartiles([1.2]) == (1.2, 1.2, 1.2)
    assert cpu_scaling.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


def test_summary_reads_every_end_to_end_metric(cpu_scaling, capsys):
    cpu_scaling.main(["--workload", "zipf_planes_fork", "--pairs", "3", "--cpus-b",
                      cpu_scaling.format_cpus(cpu_scaling.allowed)])
    out = capsys.readouterr().out
    benchmark = json.loads((cpu_scaling.REPO / "BENCHMARK.json").read_text())
    assert "cpu_count %d" % os.cpu_count() in out
    assert "set A %d" % min(cpu_scaling.allowed) in out
    assert "set B %s" % cpu_scaling.format_cpus(cpu_scaling.allowed) in out
    lines = {line.split()[0]: line.split() for line in out.splitlines()}
    for metric in benchmark["end_to_end"]:
        median, iqr = map(float, lines[metric["name"]][2:4])
        if metric["name"].startswith("sim_") or len(cpu_scaling.allowed) == 1:
            assert (median, iqr) == (1.0, 0.0)
        else:
            assert (median, iqr) == (2.0, 0.0)
    assert "set A: failed 0 of 9 attempted" in out


def test_pairs_alternate_which_set_goes_first(cpu_scaling):
    a = frozenset([min(cpu_scaling.allowed)])
    b = cpu_scaling.allowed
    cpu_scaling.main(["--workload", "paper100_event", "--pairs", "4"])
    assert cpu_scaling.calls == [a, b, b, a, a, b, b, a]


def test_a_set_outside_the_allowed_cpus_is_refused(cpu_scaling):
    outside = max(cpu_scaling.allowed) + 1
    with pytest.raises(SystemExit):
        cpu_scaling.main(["--workload", "paper100_event", "--cpus-a", str(outside)])
    with pytest.raises(SystemExit):
        cpu_scaling.main(["--workload", "paper100_event", "--pairs", "0"])
    assert cpu_scaling.calls == []
