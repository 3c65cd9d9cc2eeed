"""Self-test of the benchmark harness: ``pytest perf/`` (not tier-1).

Drives ``perf/run.py --scale smoke`` (30/50-node worlds, one repeat)
and checks the harness, not the engines: every named metric is there
with its unit, spans nest, a vanished seam reads null, patches are
undone, and no shard worker outlives the command.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "perf" / "run.py")]
sys.path.insert(0, str(ROOT / "src"))

from perf import bench  # noqa: E402
from perf.hostspeed import Reference, Sampler  # noqa: E402
from perf.trace import Seam, Tracer, resolve  # noqa: E402


def _contract():
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def _survivors(marker: str):
    """Live processes whose command line mentions ``marker`` (forked
    workers inherit the command line of the run that started them)."""
    found = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit() or int(pid) == os.getpid():
            continue
        try:
            with open("/proc/%s/cmdline" % pid, "rb") as handle:
                if marker.encode() in handle.read():
                    found.append(int(pid))
        except OSError:
            continue
    return found


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf-smoke")
    done = subprocess.run(
        RUN + ["--scale", "smoke", "--out", str(out)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out / "perf-seed0.json") as handle:
        artifact = json.load(handle)
    return out, artifact, done


def test_every_named_metric_is_reported_with_its_unit(smoke):
    _out, artifact, _done = smoke
    contract = _contract()
    measured = artifact["sets"][0]
    assert list(measured) == [w["name"] for w in contract["workloads"]]
    for name, workload in measured.items():
        assert workload["failed"] == 0, name
        for metric in contract["end_to_end"]:
            entry = workload["end_to_end"][metric["name"]]
            assert entry["unit"] == metric["unit"], (name, metric["name"])
            assert entry["value"] > 0, (name, metric["name"])
        for metric in bench.REPORT_ONLY_E2E:
            assert metric in workload["end_to_end"], (name, metric)
        # Host times are in reference seconds; the measured ones stay beside them.
        for metric in ("setup_s", "queries_per_wall_s", "greedy_queries_per_wall_s", "cpu_s_per_kquery"):
            assert workload["end_to_end"][metric]["raw"] > 0, (name, metric)
        assert workload["end_to_end"]["host_slowdown_ratio"]["value"] > 0
        for metric in contract["per_layer"]:
            entry = workload["per_layer"][metric["name"]]
            assert entry["unit"] == metric["unit"], (name, metric["name"])
            assert entry["value"] is not None or entry["reason"], (name, metric)
        assert workload["per_layer"]["trace.overhead_ratio"]["value"] > 0


def test_contract_tables_match_the_code():
    contract = _contract()
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in contract["end_to_end"]} == bench.E2E_METRICS
    assert {m["name"]: (m["unit"], m["better"]) for m in contract["per_layer"]} == bench.LAYER_METRICS
    assert [w["name"] for w in contract["workloads"]] == list(bench.workloads.WORKLOADS)


def test_planes_price_shard_side_and_only_tcp_frames(smoke):
    _out, artifact, _done = smoke
    measured = artifact["sets"][0]
    fork, tcp = measured["zipf_planes_fork"], measured["zipf_planes_tcp"]
    assert fork["per_layer"]["shards.local_classes"]["value"] > 0
    assert fork["per_layer"]["protocol.frame_bytes"]["value"] == 0
    assert tcp["per_layer"]["protocol.frame_bytes"]["value"] > 0
    assert fork["outcomes"] == tcp["outcomes"]
    # Self times of the layers under the shards.run root add up to it.
    for planes in (fork, tcp):
        layers = {k: v["value"] for k, v in planes["per_layer"].items()}
        parts = sum(
            layers[name]
            for name in (
                "shards.run_self_s",
                "transport.exchange_wait_s",
                "transport.post_s",
                "protocol.encode_s",
                "protocol.decode_s",
                "protocol.frame_encode_s",
                "protocol.frame_decode_s",
                "shards.merge_digest_s",
                "metrics.summarise_s",
            )
        )
        assert parts == pytest.approx(layers["shards.run_s"], rel=0.05)
    single = measured["paper100_event"]["per_layer"]
    assert single["shards.run_s"]["value"] == 0
    assert single["shards.overlap_ratio"]["value"] is None


def test_children_never_exceed_their_parent_span(smoke):
    out, _artifact, _done = smoke
    files = sorted(out.glob("spans-*.jsonl"))
    assert len(files) == 4
    for path in files:
        groups = {}
        with open(path) as handle:
            for line in handle:
                row = json.loads(line)
                groups.setdefault((row["phase"], row.get("traced_run")), []).append(row)
        for rows in groups.values():
            covered = [0.0] * len(rows)
            for row in rows:
                assert row["end_s"] >= row["start_s"]
                if row["parent"] >= 0:
                    parent = rows[row["parent"]]
                    assert parent["start_s"] <= row["start_s"]
                    assert row["end_s"] <= parent["end_s"]
                    covered[row["parent"]] += row["end_s"] - row["start_s"]
            for row, inside in zip(rows, covered):
                assert inside <= (row["end_s"] - row["start_s"]) + 1e-9


def test_no_worker_survives(smoke):
    out, _artifact, _done = smoke
    assert _survivors(str(out)) == []


def test_missing_seam_reads_null_not_an_exception(capsys):
    tracer = Tracer()
    seams = [
        Seam("gone.function", "json.no_such_function"),
        Seam("gone.module", "no_such_package.module.function"),
        Seam("here", "json.dumps"),
    ]
    with tracer.patched(seams):
        json.dumps({})
    assert set(tracer.missing) == {"gone.function", "gone.module"}
    assert "seam json.no_such_function is gone" in capsys.readouterr().err
    values = bench._span_values(
        tracer,
        {"gone_s": ("gone.function", "self_s"), "here_calls": ("here", "calls")},
    )
    assert values == {"gone_s": None, "here_calls": 1}


def test_wrappers_are_installed_only_for_the_traced_pass():
    import repro.protocol.transport as transport
    import repro.sim.shards as shards

    originals = {}
    for seam in bench.RUN_SEAMS:
        owner, attribute, value = resolve(seam.target)
        originals[seam.target] = (owner, attribute, value)
    assert shards.encode_frame is transport.encode_frame
    with Tracer().patched(bench.RUN_SEAMS):
        # Patched on every module that imported the function.
        assert shards.encode_frame is transport.encode_frame
        assert shards.encode_frame is not originals["repro.protocol.transport.encode_frame"][2]
        for owner, attribute, value in originals.values():
            assert getattr(owner, attribute) is not value
    for owner, attribute, value in originals.values():
        assert vars(owner)[attribute] is value


def test_sampler_restores_the_alarm_and_knows_its_own_cost():
    reference = Reference()
    handler = signal.getsignal(signal.SIGALRM)
    with Sampler(reference) as sampler:
        deadline = time.perf_counter() + 0.15
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    ticks = len(sampler.chunks) - 2  # one chunk on entry, one on exit
    assert ticks >= 2
    assert sampler.inside_s == pytest.approx(sum(sampler.chunks[1:-1]))
    assert 0 < sampler.inside_s < 0.15
    assert sampler.slowdown > 0


@pytest.mark.parametrize("trace, table", [(0, "end_to_end"), (1, "per_layer")])
def test_driver_line(trace, table):
    done = subprocess.run(
        RUN
        + ["--workload", "zipf_planes_tcp", "--seed", "3", "--seconds", "0"]
        + ["--trace", str(trace), "--scale", "smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in _contract()[table]]
    for entry in result["metrics"].values():
        assert set(entry) == {"value", "unit"}
        assert isinstance(entry["value"], (int, float))
    assert _survivors("zipf_planes_tcp") == []


def test_compare_refuses_another_core_count(smoke, tmp_path):
    out, artifact, _done = smoke
    same = subprocess.run(
        RUN + ["--compare", str(out / "perf-seed0.json"), str(out / "perf-seed0.json")],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert same.returncode == 0, same.stdout + same.stderr
    assert "identical" in same.stdout and "OUTSIDE" not in same.stdout
    artifact["environment"]["nproc"] += 2
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(artifact))
    refused = subprocess.run(
        RUN + ["--compare", str(out / "perf-seed0.json"), str(edited)],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert refused.returncode == 2
    assert "nproc differs" in refused.stderr
