"""Tests for the microbenchmark subsystem (:mod:`repro.bench`)."""

import json
import multiprocessing

import pytest

from repro import cli
from repro.bench import (
    BENCH_SCHEMA_VERSION,
    KERNELS,
    Measurement,
    bench_payload,
    compare_payloads,
    confirm_regressions,
    find_regressions,
    measure,
    measure_peak,
    render_results,
    resolve_auto_baseline,
    run_benchmarks,
    write_bench_artifact,
)

#: Kernels ISSUE-level tooling relies on being present.
REQUIRED_KERNELS = {
    "qant.run_period",
    "qant.period_tick",
    "supply.greedy",
    "supply.proportional",
    "supply.exact",
    "vector.arith",
    "vector.aggregate",
    "sim.event_throughput",
    "proto.codec",
    "e2e.federation_sweep",
    "fed.fig5a_1000node",
    "fed.fig5a_localmarket",
}


class TestRegistry:
    def test_at_least_six_kernels_registered(self):
        assert len(KERNELS) >= 6

    def test_required_kernels_present(self):
        assert REQUIRED_KERNELS <= set(KERNELS)

    def test_every_kernel_setup_returns_callable(self):
        # Exclude the expensive end-to-end kernel; its setup builds a
        # 20-node world and is covered by the CLI smoke in CI.
        for name, kernel in KERNELS.items():
            if name.startswith("e2e."):
                continue
            fn = kernel.setup()
            try:
                assert callable(fn)
                fn()  # one untimed execution must not raise
            finally:
                kernel.teardown(fn)
        # The forked shard pools of the fed.*sharded kernels are gone.
        assert multiprocessing.active_children() == []

    def test_duplicate_registration_rejected(self):
        from repro.bench.kernels import register_kernel

        with pytest.raises(ValueError):
            register_kernel("vector.arith", "dup")(lambda: (lambda: None))


class TestHarness:
    def test_measure_reports_positive_time(self):
        ns_per_op, inner = measure(lambda: sum(range(50)), repeat=1)
        assert ns_per_op > 0
        assert inner >= 1

    def test_measure_rejects_zero_repeat(self):
        with pytest.raises(ValueError):
            measure(lambda: None, repeat=0)

    def test_measure_wall_mode_reports_positive_time(self):
        ns_per_op, inner = measure(
            lambda: sum(range(50)), repeat=1, wall=True
        )
        assert ns_per_op > 0
        assert inner >= 1

    def test_sharded_kernel_is_wall_timed(self):
        # Parent CPU time misses the forked shard workers entirely; the
        # kernel must opt into wall-clock timing.
        assert KERNELS["fed.fig5a_localmarket"].wall_time
        assert not KERNELS["fed.fig5a_1000node"].wall_time

    def test_measure_peak_adds_child_process_peak(self):
        # Multi-process kernels surface their workers' RSS through a
        # `child_peak_kb` hook on the timed callable; `bench --mem` must
        # include it instead of silently reporting only the parent.
        def fn():
            return bytearray(64 * 1024)

        fn.child_peak_kb = lambda: 10_000.0
        assert measure_peak(fn) >= 10_000.0

    def test_unknown_filter_raises(self):
        with pytest.raises(ValueError, match="no benchmark kernel matches"):
            run_benchmarks(name_filter="definitely-not-a-kernel", repeat=1)

    def test_run_filtered_and_payload_schema(self, tmp_path):
        fast = {
            "vector.arith": KERNELS["vector.arith"],
            "vector.aggregate": KERNELS["vector.aggregate"],
        }
        results = run_benchmarks(
            name_filter="vector", repeat=1, kernels=fast
        )
        assert set(results) == set(fast)
        for measurement in results.values():
            assert measurement.ns_per_op > 0
            assert measurement.ops_per_s > 0
            assert measurement.repeat == 1

        payload = bench_payload(results, label="unit")
        assert payload["schema_version"] == BENCH_SCHEMA_VERSION
        assert payload["kind"] == "bench"
        assert payload["label"] == "unit"
        assert "python_version" in payload["environment"]
        assert set(payload["kernels"]) == set(fast)
        entry = payload["kernels"]["vector.arith"]
        assert {"description", "ns_per_op", "ops_per_s", "repeat"} <= set(
            entry
        )

        path = write_bench_artifact(payload, "unit", directory=str(tmp_path))
        assert path.name == "BENCH_unit.json"
        on_disk = json.loads(path.read_text())
        assert on_disk["kernels"].keys() == payload["kernels"].keys()

    def test_compare_payloads_speedup_factors(self):
        def entry(ns):
            return {"description": "", "ns_per_op": ns, "ops_per_s": 1e9 / ns}

        before = {
            "schema_version": BENCH_SCHEMA_VERSION,
            "kind": "bench",
            "kernels": {"a": entry(200.0), "b": entry(100.0)},
        }
        after = {
            "schema_version": BENCH_SCHEMA_VERSION,
            "kind": "bench",
            "kernels": {"a": entry(100.0)},
        }
        speedups = compare_payloads(before, after)
        assert speedups == {"a": 2.0}

    def test_compare_rejects_wrong_schema(self):
        good = {"schema_version": BENCH_SCHEMA_VERSION, "kind": "bench", "kernels": {}}
        bad = {"schema_version": 999, "kind": "bench", "kernels": {}}
        with pytest.raises(ValueError):
            compare_payloads(good, bad)

    def test_compare_accepts_schema_v1_baseline(self):
        # PR 3/4 artifacts predate the peak_kb field; they must remain
        # readable so `--baseline auto` can span the schema bump.
        old = {"schema_version": 1, "kind": "bench", "kernels": {}}
        new = {
            "schema_version": BENCH_SCHEMA_VERSION,
            "kind": "bench",
            "kernels": {},
        }
        assert compare_payloads(old, new) == {}

    def test_find_regressions_flags_only_kernels_over_threshold(self):
        def entry(ns):
            return {"description": "", "ns_per_op": ns, "ops_per_s": 1e9 / ns}

        def measurement(name, ns):
            return Measurement(
                name=name, description="", ns_per_op=ns, repeat=1, inner_loops=1
            )

        baseline = {
            "schema_version": BENCH_SCHEMA_VERSION,
            "kind": "bench",
            "kernels": {
                "fast": entry(100.0),
                "slow": entry(100.0),
                "gone": entry(100.0),
            },
        }
        results = {
            "fast": measurement("fast", 120.0),  # +20%: under threshold
            "slow": measurement("slow", 200.0),  # +100%: regression
            "new": measurement("new", 50.0),  # no baseline: ignored
        }
        regressions = find_regressions(baseline, results, threshold_pct=50.0)
        assert set(regressions) == {"slow"}
        assert regressions["slow"] == pytest.approx(100.0)

    @staticmethod
    def _suite(ns_by_name, as_measurements=False):
        if as_measurements:
            return {
                name: Measurement(
                    name=name,
                    description="",
                    ns_per_op=ns,
                    repeat=1,
                    inner_loops=1,
                )
                for name, ns in ns_by_name.items()
            }
        return {
            "schema_version": BENCH_SCHEMA_VERSION,
            "kind": "bench",
            "kernels": {
                name: {
                    "description": "",
                    "ns_per_op": ns,
                    "ops_per_s": 1e9 / ns,
                }
                for name, ns in ns_by_name.items()
            },
        }

    def test_normalized_gate_forgives_suite_wide_slowdown(self):
        # Host phase: every kernel uniformly 1.5x slower.  The median
        # absorbs the common mode, so nothing is flagged...
        baseline = self._suite({"a": 100.0, "b": 200.0, "c": 400.0})
        uniform = self._suite(
            {"a": 150.0, "b": 300.0, "c": 600.0}, as_measurements=True
        )
        assert (
            find_regressions(baseline, uniform, 35.0, normalize_common=True)
            == {}
        )
        # ...but the un-normalised comparison still sees all three.
        assert set(find_regressions(baseline, uniform, 35.0)) == {
            "a",
            "b",
            "c",
        }

    def test_normalized_gate_still_catches_single_kernel_regression(self):
        baseline = self._suite({"a": 100.0, "b": 200.0, "c": 400.0})
        one_bad = self._suite(
            {"a": 150.0, "b": 300.0, "c": 1200.0}, as_measurements=True
        )
        flagged = find_regressions(
            baseline, one_bad, 35.0, normalize_common=True
        )
        assert set(flagged) == {"c"}
        assert flagged["c"] == pytest.approx(100.0)  # 3x raw / 1.5x common

    def test_normalization_needs_three_kernels(self):
        # Below three compared kernels the common mode can't be told
        # apart from a real regression: fall back to absolute.
        baseline = self._suite({"a": 100.0, "b": 200.0})
        slowed = self._suite(
            {"a": 150.0, "b": 300.0}, as_measurements=True
        )
        assert set(
            find_regressions(baseline, slowed, 35.0, normalize_common=True)
        ) == {"a", "b"}

    def test_normalization_never_penalises_fast_machines(self):
        # Median speedup (machine faster than baseline) must not inflate
        # the one kernel that didn't speed up: clamp the common mode at 1.
        baseline = self._suite({"a": 100.0, "b": 200.0, "c": 400.0})
        faster = self._suite(
            {"a": 50.0, "b": 100.0, "c": 400.0}, as_measurements=True
        )
        assert (
            find_regressions(baseline, faster, 35.0, normalize_common=True)
            == {}
        )

    def test_confirm_regressions_clears_transient_noise(self):
        # A fabricated slow sample against a generous baseline: the
        # re-measure sees the kernel's true (fast) speed and clears it.
        baseline = {
            "schema_version": BENCH_SCHEMA_VERSION,
            "kind": "bench",
            "kernels": {
                "vector.arith": {
                    "description": "",
                    "ns_per_op": 1e9,
                    "ops_per_s": 1.0,
                }
            },
        }
        noisy = Measurement(
            name="vector.arith",
            description="",
            ns_per_op=1e10,
            repeat=1,
            inner_loops=1,
        )
        results = {"vector.arith": noisy}
        remaining = confirm_regressions(baseline, results, 50.0, repeat=1)
        assert remaining == {}
        # The confirmed (faster) measurement replaced the noisy sample.
        assert results["vector.arith"].ns_per_op < noisy.ns_per_op

    def test_confirm_regressions_keeps_real_regressions(self):
        # No real kernel runs in under a picosecond: the regression must
        # survive every confirmation round.
        baseline = {
            "schema_version": BENCH_SCHEMA_VERSION,
            "kind": "bench",
            "kernels": {
                "vector.arith": {
                    "description": "",
                    "ns_per_op": 1e-3,
                    "ops_per_s": 1e12,
                }
            },
        }
        results = run_benchmarks(name_filter="vector.arith", repeat=1)
        remaining = confirm_regressions(baseline, results, 50.0, repeat=1)
        assert set(remaining) == {"vector.arith"}

    def test_find_regressions_rejects_negative_threshold(self):
        baseline = {
            "schema_version": BENCH_SCHEMA_VERSION,
            "kind": "bench",
            "kernels": {},
        }
        with pytest.raises(ValueError):
            find_regressions(baseline, {}, threshold_pct=-1.0)

    def test_render_results_table(self):
        results = run_benchmarks(
            name_filter="vector.arith", repeat=1
        )
        table = render_results(results)
        assert "kernel" in table and "ns/op" in table
        assert "vector.arith" in table
        assert "peak KiB" not in table  # only shown when --mem ran

    def test_measure_peak_reports_positive_kib(self):
        peak = measure_peak(lambda: bytearray(512 * 1024))
        assert peak >= 512.0  # at least the 512 KiB buffer itself

    def test_run_benchmarks_mem_populates_peak_kb(self):
        results = run_benchmarks(
            name_filter="vector.arith", repeat=1, measure_mem=True
        )
        measurement = results["vector.arith"]
        assert measurement.peak_kb is not None
        assert measurement.peak_kb > 0
        entry = measurement.to_dict()
        assert entry["peak_kb"] == measurement.peak_kb
        table = render_results(results)
        assert "peak KiB" in table

    def test_peak_kb_absent_without_mem(self):
        results = run_benchmarks(name_filter="vector.arith", repeat=1)
        measurement = results["vector.arith"]
        assert measurement.peak_kb is None
        assert "peak_kb" not in measurement.to_dict()


class TestAutoBaseline:
    def test_picks_highest_pr_number(self, tmp_path):
        for name in (
            "BENCH_pr2.json",
            "BENCH_pr10.json",
            "BENCH_pr9.json",
            "BENCH_nightly.json",  # non-PR artifacts are ignored
            "BENCH_pr3.json.bak",
        ):
            (tmp_path / name).write_text("{}")
        resolved = resolve_auto_baseline(directory=str(tmp_path))
        assert resolved.name == "BENCH_pr10.json"

    def test_errors_when_no_pr_artifact_exists(self, tmp_path):
        (tmp_path / "BENCH_nightly.json").write_text("{}")
        with pytest.raises(ValueError, match="no committed BENCH_pr"):
            resolve_auto_baseline(directory=str(tmp_path))

    def test_repo_root_has_a_committed_baseline(self):
        # The Makefile/CI gate runs `--baseline auto` from the repo root;
        # a release that forgets to commit BENCH_pr<N>.json breaks it.
        resolved = resolve_auto_baseline()
        assert resolved.exists()


class TestCli:
    def test_bench_subcommand_writes_artifact(self, tmp_path, capsys):
        rc = cli.main(
            [
                "bench",
                "--filter",
                "vector",
                "--repeat",
                "1",
                "--json",
                "--label",
                "clitest",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "vector.arith" in out
        artifact = tmp_path / "BENCH_clitest.json"
        assert artifact.exists()
        payload = json.loads(artifact.read_text())
        assert payload["schema_version"] == BENCH_SCHEMA_VERSION
        assert "vector.aggregate" in payload["kernels"]

    def test_bench_subcommand_bad_filter_fails(self, capsys):
        rc = cli.main(["bench", "--filter", "nope-nothing", "--repeat", "1"])
        assert rc == 2
        assert "no benchmark kernel" in capsys.readouterr().err

    def test_bench_subcommand_rejects_zero_repeat(self, capsys):
        rc = cli.main(["bench", "--repeat", "0"])
        assert rc == 2
        assert "--repeat" in capsys.readouterr().err

    def test_bench_subcommand_rejects_path_label(self, capsys):
        rc = cli.main(
            ["bench", "--filter", "vector.arith", "--repeat", "1", "--json",
             "--label", "bad/label"]
        )
        assert rc == 2
        assert "label" in capsys.readouterr().err

    def test_bench_subcommand_rejects_missing_baseline(self, capsys):
        rc = cli.main(
            ["bench", "--filter", "vector.arith", "--repeat", "1",
             "--baseline", "/definitely/not/there.json"]
        )
        assert rc == 2
        assert "cannot read baseline" in capsys.readouterr().err

    def test_fail_above_requires_baseline(self, capsys):
        rc = cli.main(
            ["bench", "--filter", "vector.arith", "--repeat", "1",
             "--fail-above", "50"]
        )
        assert rc == 2
        assert "--fail-above requires --baseline" in capsys.readouterr().err

    @staticmethod
    def _baseline_artifact(tmp_path, ns_per_op):
        payload = {
            "schema_version": BENCH_SCHEMA_VERSION,
            "kind": "bench",
            "kernels": {
                "vector.arith": {
                    "description": "",
                    "ns_per_op": ns_per_op,
                    "ops_per_s": 1e9 / ns_per_op,
                }
            },
        }
        path = tmp_path / "BENCH_gate.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_fail_above_passes_against_slow_baseline(self, tmp_path, capsys):
        baseline = self._baseline_artifact(tmp_path, ns_per_op=1e12)
        rc = cli.main(
            ["bench", "--filter", "vector.arith", "--repeat", "1",
             "--baseline", baseline, "--fail-above", "50"]
        )
        assert rc == 0
        assert "OK: no kernel regressed" in capsys.readouterr().out

    def test_fail_above_trips_against_fast_baseline(self, tmp_path, capsys):
        baseline = self._baseline_artifact(tmp_path, ns_per_op=1e-3)
        rc = cli.main(
            ["bench", "--filter", "vector.arith", "--repeat", "1",
             "--baseline", baseline, "--fail-above", "50"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "FAIL: 1 kernel(s) regressed" in err
        assert "vector.arith" in err

    def test_fail_above_rejects_negative_threshold(self, tmp_path, capsys):
        baseline = self._baseline_artifact(tmp_path, ns_per_op=1e12)
        rc = cli.main(
            ["bench", "--filter", "vector.arith", "--repeat", "1",
             "--baseline", baseline, "--fail-above", "-5"]
        )
        assert rc == 2
        assert "non-negative" in capsys.readouterr().err

    def test_write_artifact_rejects_path_label(self, tmp_path):
        with pytest.raises(ValueError, match="file-name fragment"):
            write_bench_artifact({}, "../escape", directory=str(tmp_path))

    def test_bench_baseline_auto_resolves_newest_pr(
        self, tmp_path, capsys, monkeypatch
    ):
        slow = self._baseline_artifact(tmp_path, ns_per_op=1e12)
        (tmp_path / "BENCH_pr7.json").write_text(
            (tmp_path / "BENCH_gate.json").read_text()
        )
        assert slow  # _baseline_artifact wrote BENCH_gate.json (ignored)
        monkeypatch.chdir(tmp_path)
        rc = cli.main(
            ["bench", "--filter", "vector.arith", "--repeat", "1",
             "--baseline", "auto", "--fail-above", "50"]
        )
        assert rc == 0
        assert "OK: no kernel regressed" in capsys.readouterr().out

    def test_bench_baseline_auto_fails_without_artifact(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        rc = cli.main(
            ["bench", "--filter", "vector.arith", "--repeat", "1",
             "--baseline", "auto"]
        )
        assert rc == 2
        assert "no committed BENCH_pr" in capsys.readouterr().err

    def test_bench_mem_flag_emits_peak_column(self, tmp_path, capsys):
        rc = cli.main(
            ["bench", "--filter", "vector.arith", "--repeat", "1", "--mem",
             "--json", "--label", "memtest", "--out", str(tmp_path)]
        )
        assert rc == 0
        assert "peak KiB" in capsys.readouterr().out
        payload = json.loads((tmp_path / "BENCH_memtest.json").read_text())
        assert payload["kernels"]["vector.arith"]["peak_kb"] > 0


class TestProfileCli:
    def test_profile_kernel_renders_stats(self, capsys):
        rc = cli.main(["profile", "--kernel", "vector.arith", "--top", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "vector.arith" in out
        assert "cumtime" in out  # pstats table rendered

    def test_profile_kernel_json_payload(self, capsys):
        rc = cli.main(
            ["profile", "--kernel", "vector.arith", "--top", "5", "--json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 2
        assert payload["kind"] == "profile"
        assert payload["target"] == "kernel:vector.arith"
        assert payload["sort"] == "tottime"
        assert payload["total_time_s"] > 0
        # Single-process kernels carry an empty per-shard section (v2).
        assert payload["shards"] == []
        assert 1 <= len(payload["rows"]) <= 5
        row = payload["rows"][0]
        assert set(row) == {
            "file",
            "line",
            "function",
            "ncalls",
            "primitive_calls",
            "tottime_s",
            "cumtime_s",
        }
        # tottime sort: rows arrive hottest-first.
        times = [r["tottime_s"] for r in payload["rows"]]
        assert times == sorted(times, reverse=True)

    def test_profile_payload_carries_shard_self_time(self):
        import cProfile

        from repro.profiling import profile_payload, read_profile_payload

        profiler = cProfile.Profile()
        profiler.enable()
        sum(range(100))
        profiler.disable()
        payload = profile_payload(
            profiler, "kernel:fake", shard_self_time_s=[0.5, 0.25]
        )
        assert payload["schema_version"] == 2
        assert payload["shards"] == [
            {"shard": 0, "self_time_s": 0.5},
            {"shard": 1, "self_time_s": 0.25},
        ]
        # v1 artifacts normalise; unknown versions are refused.
        assert read_profile_payload(payload) == payload
        with pytest.raises(ValueError):
            read_profile_payload({"schema_version": 3, "kind": "profile"})

    def test_profile_rejects_bad_limit(self, capsys):
        rc = cli.main(["profile", "--kernel", "vector.arith", "--top", "0"])
        assert rc == 2
        assert "limit" in capsys.readouterr().err

    def test_profile_rejects_kernel_and_experiment_together(self, capsys):
        rc = cli.main(["profile", "fig4", "--kernel", "vector.arith"])
        assert rc == 2
        assert "exactly one target" in capsys.readouterr().err

    def test_profile_rejects_neither_target(self, capsys):
        rc = cli.main(["profile"])
        assert rc == 2

    def test_profile_unknown_kernel_fails(self, capsys):
        rc = cli.main(["profile", "--kernel", "nope.missing"])
        assert rc == 2
        assert "nope.missing" in capsys.readouterr().err
