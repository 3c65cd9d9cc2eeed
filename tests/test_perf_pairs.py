"""``tools/perf_pairs.py``: ``--layers`` parsing and the layer table,
and the measured (``raw``) medians and host slowdown per side.

The tool's subprocess seam (``run_once``) and ``git archive`` are
stubbed, so nothing here runs the benchmark.
"""

import importlib.util
import json
import pathlib
import types

import pytest

_TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "perf_pairs.py"


@pytest.fixture
def perf_pairs(monkeypatch):
    spec = importlib.util.spec_from_file_location("perf_pairs", _TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    benchmark = json.loads((tool.REPO / "BENCHMARK.json").read_text())
    calls = []

    def run_once(tree, workload, seed, seconds, trace=0, out=None):
        """The change is 2x the parent on every row, end-to-end or layer.

        With ``out`` it also writes the full result object, as
        ``perf/run.py --out`` does: the two rates carry a ``raw``
        median of three times their value, and ``host_slowdown_ratio``
        reads 1.5 on the parent side, 1.25 on the change's."""
        scale = 2.0 if tree == tool.REPO else 1.0
        calls.append((tree == tool.REPO, trace))
        rows = benchmark["per_layer"] if trace else benchmark["end_to_end"]
        metrics = {
            row["name"]: {"value": scale * (1 + n), "unit": row["unit"]}
            for n, row in enumerate(rows)
        }
        if out is not None:
            full = {name: dict(entry) for name, entry in metrics.items()}
            for name in ("queries_per_wall_s", "greedy_queries_per_wall_s"):
                full[name]["raw"] = 3 * full[name]["value"]
            full["host_slowdown_ratio"] = {
                "value": 1.25 if scale == 2.0 else 1.5, "unit": "ratio"
            }
            out.mkdir(parents=True)
            (out / ("result-%s-trace%d.json" % (workload, trace))).write_text(
                json.dumps({"metrics": full})
            )
        return {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(tool, "run_once", run_once)
    monkeypatch.setattr(tool, "export_tree", lambda ref, target: None)
    tool.calls = calls
    return tool


_ARGS = ["--parent", "HEAD", "--workload", "zipf_planes_fork", "--pairs", "2"]


def test_layers_flag_adds_one_traced_pass_per_tree(perf_pairs, capsys, tmp_path):
    out = tmp_path / "pairs.json"
    layers = "shards.residual_classes,shards.shard_busy_s_max"
    assert perf_pairs.main(_ARGS + ["--layers", layers, "--json", str(out)]) == 0
    # Two alternating pairs untraced, then parent and change traced once.
    assert perf_pairs.calls == [
        (False, 0), (True, 0), (True, 0), (False, 0), (False, 1), (True, 1)
    ]
    table = capsys.readouterr().out.split("layer ", 1)[1].splitlines()
    assert table[0].split() == ["parent", "change", "ratio"]
    assert [line.split()[0] for line in table[1:]] == layers.split(",")
    assert table[1].split()[1:] == ["(count,", "lower)", "7", "14", "2.000"]
    assert set(json.loads(out.read_text())["traced"]) == {"parent", "change"}


def test_without_layers_no_traced_pass(perf_pairs, capsys):
    assert perf_pairs.main(_ARGS) == 0
    assert all(trace == 0 for _change, trace in perf_pairs.calls)
    assert "layer " not in capsys.readouterr().out


def test_unknown_layer_is_an_argparse_error_listing_the_valid_ones(
    perf_pairs, capsys
):
    with pytest.raises(SystemExit) as raised:
        perf_pairs.main(_ARGS + ["--layers", "shards.run_s,shards.nope"])
    assert raised.value.code == 2
    complaint = capsys.readouterr().err
    assert "shards.nope" in complaint and "transport.barrier_wait_s" in complaint
    assert perf_pairs.calls == []


def test_measured_medians_and_host_slowdown_per_side(perf_pairs, capsys, tmp_path):
    """perf/README wants ``raw`` and ``host_slowdown_ratio`` beside a
    plane-workload claim; the driver line carries neither, so every run
    writes its full result (``--out``) and the tool reads that."""
    out = tmp_path / "pairs.json"
    assert perf_pairs.main(_ARGS + ["--json", str(out)]) == 0
    table = capsys.readouterr().out.split("measured median (raw) / host", 1)[1]
    lines = table.splitlines()
    assert lines[0].split() == ["parent", "change", "ratio"]
    rows = {line.split()[0]: line.split()[1:] for line in lines[1:4]}
    # queries_per_wall_s is end-to-end row 1 (value 2 / 4), greedy row 2.
    assert rows["queries_per_wall_s"] == ["(raw)", "6", "12", "2.000"]
    assert rows["greedy_queries_per_wall_s"] == ["(raw)", "9", "18", "2.000"]
    assert rows["host_slowdown_ratio"] == ["1.5", "1.25", "0.833"]
    measured = json.loads(out.read_text())["measured"]
    assert [row["name"] for row in measured] == [
        "queries_per_wall_s", "greedy_queries_per_wall_s", "host_slowdown_ratio"
    ]


def test_run_once_pins_the_child_only_when_given_cpus(monkeypatch):
    spec = importlib.util.spec_from_file_location("perf_pairs", _TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    seen = []

    def run(command, **kwargs):
        seen.append(kwargs)
        return types.SimpleNamespace(stdout='log line\n{"metrics": {}}\n')

    monkeypatch.setattr(tool.subprocess, "run", run)
    assert tool.run_once(tool.REPO, "paper100_event", 0, 1.0) == {"metrics": {}}
    tool.run_once(tool.REPO, "paper100_event", 0, 1.0, cpus=frozenset({0}))
    assert seen[0]["preexec_fn"] is None
    assert callable(seen[1]["preexec_fn"])
