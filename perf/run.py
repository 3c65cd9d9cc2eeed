#!/usr/bin/env python3
"""The repo benchmark command.

    python3 perf/run.py [--seed N]            every workload, full report
    python3 perf/run.py --workload W --seed N --seconds S --trace 0|1
                                              one run, result JSON on the last line
    python3 perf/run.py --compare A.json B.json
    python3 perf/run.py --record              pin outcomes of the recorded seeds

See perf/README.md for the workloads, metrics and how to read them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent


def _import_benchmark():
    """Make ``repro`` (from this checkout's ``src``) and ``perf`` importable."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit("perf: %s has no repro package: nothing to benchmark" % src)
    # Running a file puts its directory first on sys.path; ours would shadow
    # the stdlib ``trace`` module, so the repo root takes its place.
    sys.path[0] = str(ROOT)
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent.parent != src:
        sys.exit("perf: imported repro from %s, not this checkout" % repro.__file__)
    from perf import bench

    return bench


def _contract() -> Dict[str, object]:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def _environment() -> Dict[str, object]:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # not a git checkout
    return {
        "nproc": os.cpu_count(),
        "sched_affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_1min_start": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
    }


# -- one run for the driver ---------------------------------------------------


def _result_name(workload: str, trace: int) -> str:
    return "result-%s-trace%d.json" % (workload, trace)


def run_one(bench, args) -> int:
    """One workload, one pass; the last stdout line is the result object."""
    workload = bench.workloads.WORKLOADS[args.workload]
    if args.trace:
        result = bench.measure_layers(
            workload, args.seed, args.seconds, args.scale, args.out
        )
        names = bench.LAYER_METRICS
    else:
        result = bench.measure_end_to_end(
            workload, args.seed, args.seconds, args.scale
        )
        names = bench.E2E_METRICS
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        with open(args.out / _result_name(workload.name, args.trace), "w") as handle:
            json.dump(result, handle)
    if not result["metrics"]:
        print("perf: no run of %s succeeded" % workload.name, file=sys.stderr)
        return 1
    metrics = {}
    for name in names:
        entry = result["metrics"][name]
        value = entry["value"]
        if value is None:
            # The result line carries numbers only; the reason goes to stderr.
            print("perf: %s reads null (%s); emitted as 0" % (name, entry["reason"]), file=sys.stderr)
            value = 0
        metrics[name] = {"value": value, "unit": entry["unit"]}
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if result["failed"] == 0 else 1


# -- the full report ----------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    return "%.6g" % value


def _print_workload(name: str, why: str, e2e, layers) -> None:
    print("\n== %s ==\n   %s" % (name, why))
    print(
        "   offered %d queries; %d runs attempted, %d failed"
        % (
            e2e["offered_queries"],
            e2e["attempted"] + layers["attempted"],
            e2e["failed"] + layers["failed"],
        )
    )
    print("   end to end (tracing off; median [min .. max] n):")
    for metric, entry in e2e["metrics"].items():
        spread = ""
        if "n" in entry:
            spread = "  [%s .. %s] n=%d" % (
                _fmt(entry["min"]),
                _fmt(entry["max"]),
                entry["n"],
            )
        if "raw" in entry:
            spread += "  (measured: %s)" % _fmt(entry["raw"])
        print("     %-30s %14s %-8s%s" % (metric, _fmt(entry["value"]), entry["unit"], spread))
    print("   per layer (median of %d traced qa-nt runs):" % layers["traced_runs"])
    for metric, entry in layers["metrics"].items():
        note = "  (%s)" % entry["reason"] if "reason" in entry else ""
        print("     %-30s %14s %-8s%s" % (metric, _fmt(entry["value"]), entry["unit"], note))


def run_set(bench, args, out_dir: Path) -> Dict[str, object]:
    """Every workload once: end-to-end pass, then the traced pass.

    Each pass is its own ``--workload`` process, exactly what the driver
    runs: peak RSS and warm caches never leak from one workload to the
    next.
    """
    contract = {w["name"]: w["why"] for w in _contract()["workloads"]}
    measured = {}
    for name, workload in bench.workloads.WORKLOADS.items():
        passes = []
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve())]
            command += ["--workload", name, "--seed", str(args.seed)]
            command += ["--seconds", str(args.seconds), "--trace", str(trace)]
            command += ["--scale", args.scale, "--out", str(out_dir)]
            result_path = out_dir / _result_name(name, trace)
            result_path.unlink(missing_ok=True)
            subprocess.run(command, stdout=subprocess.DEVNULL, check=False)
            if not result_path.exists():
                sys.exit("perf: the %s --trace %d pass crashed" % (name, trace))
            with open(result_path) as handle:
                passes.append(json.load(handle))
        e2e, layers = passes
        _print_workload(name, contract.get(name, workload.why), e2e, layers)
        measured[name] = {
            "offered_queries": e2e["offered_queries"],
            "attempted": e2e["attempted"] + layers["attempted"],
            "failed": e2e["failed"] + layers["failed"],
            "outcomes": e2e.get("outcomes", {}),
            "end_to_end": e2e["metrics"],
            "per_layer": layers["metrics"],
        }
    return measured


def run_report(bench, args) -> int:
    out_dir = args.out or Path(tempfile.mkdtemp(prefix="perf-"))
    out_dir.mkdir(parents=True, exist_ok=True)
    environment = _environment()
    print("perf: seed %d, scale %s, %d set(s); artifacts in %s" % (args.seed, args.scale, args.sets, out_dir))
    print("perf: simulated metrics (sim_*) are exact for a seed; host metrics are medians,")
    print("perf: in reference seconds (measured seconds / host slowdown sampled during the run).")
    print("perf: no percentile of host time is reported: %d-odd samples cannot carry one." % bench.MIN_REPEATS[args.scale])
    print("perf: model unvalidated against external reference (the repo holds no testbed measurements).")
    sets = []
    for index in range(args.sets):
        if args.sets > 1:
            print("\n#### set %d of %d ####" % (index + 1, args.sets))
        sets.append(run_set(bench, args, out_dir))
    environment["loadavg_1min_end"] = os.getloadavg()[0]
    artifact = {
        "schema": 1,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "environment": environment,
        "sets": sets,
    }
    path = out_dir / ("perf-seed%d.json" % args.seed)
    with open(path, "w") as handle:
        json.dump(artifact, handle, indent=1)
        handle.write("\n")
    print("\nperf: wrote %s" % path)
    failed = sum(w["failed"] for s in sets for w in s.values())
    incomplete = any(not w["end_to_end"] or not w["per_layer"] for s in sets for w in s.values())
    status = 1 if failed or incomplete else 0
    if args.sets > 1:
        print("\n#### agreement of set 2 with set 1 (base) ####")
        if not compare(bench, sets[0], sets[1], same_seed=True):
            status = 1
    if failed:
        print("perf: FAILED: %d run(s) raised or produced a wrong outcome" % failed, file=sys.stderr)
    return status


# -- comparing two artifacts --------------------------------------------------


def _verdict(a, b, better: str, bound: Optional[float], exact: bool) -> str:
    va, vb = a["value"], b["value"]
    if va is None and vb is None:
        return "null on both"
    if va is None or vb is None:
        return "unresolved (null on one side)"
    if exact:
        return "identical" if va == vb else "OUTSIDE: exact metric differs"
    if bound is None:
        return ""
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (vb - va) / va if va else 0.0
    if "q1" in a and "q1" in b:
        if (b["max"] < a["min"]) if better == "lower" else (b["min"] > a["max"]):
            return "within bound (every run better)"
        spread = max((x["q3"] - x["q1"]) / x["value"] for x in (a, b))
        if spread > bound:
            return "unresolved (quartile spread %.1f%% > bound)" % (100 * spread)
    if worse > bound:
        return "OUTSIDE bound (%.1f%% worse > %.0f%%)" % (100 * worse, 100 * bound)
    return "within bound"


def compare(bench, base, other, same_seed: bool) -> bool:
    """Print every metric of ``other`` against ``base``; False if any is outside."""
    ok = True
    for name in base:
        if name not in other:
            print("%s: missing from the second artifact" % name)
            ok = False
            continue
        print("\n== %s ==  (ratio = second / base)" % name)
        for section, table in (("end_to_end", bench.E2E_METRICS), ("per_layer", bench.LAYER_METRICS)):
            table = dict(table, **(bench.REPORT_ONLY_E2E if section == "end_to_end" else {}))
            for metric, a in base[name][section].items():
                b = other[name][section].get(metric)
                if b is None:
                    continue
                spec = table[metric]
                bound = spec[2] if len(spec) > 2 else None
                exact = same_seed and (
                    metric.startswith("sim_")
                    or metric == "run_failed_fraction"
                    or (section == "per_layer" and spec[0] in ("count", "bytes", "fraction"))
                )
                verdict = _verdict(a, b, spec[1], bound, exact)
                ratio = (
                    "%.4f" % (b["value"] / a["value"])
                    if a["value"] and b["value"] is not None
                    else "-"
                )
                print(
                    "  %-30s %8s  base %-12s %-8s %s"
                    % (metric, ratio, _fmt(a["value"]), a["unit"], verdict)
                )
                if verdict.startswith("OUTSIDE"):
                    ok = False
    return ok


def run_compare(bench, paths: List[Path]) -> int:
    artifacts = []
    for path in paths:
        with open(path) as handle:
            artifacts.append(json.load(handle))
    a, b = artifacts
    nprocs = [x["environment"]["nproc"] for x in artifacts]
    if nprocs[0] != nprocs[1]:
        print(
            "perf: refusing to compare: nproc differs (%s vs %s); host-time "
            "numbers from different core counts are not comparable" % tuple(nprocs),
            file=sys.stderr,
        )
        return 2
    if a["scale"] != b["scale"]:
        print("perf: refusing to compare: scale differs", file=sys.stderr)
        return 2
    print("perf: base %s (commit %s), second %s (commit %s)" % (paths[0], a["environment"]["git_commit"], paths[1], b["environment"]["git_commit"]))
    same_seed = a["seed"] == b["seed"]
    if not same_seed:
        print("perf: seeds differ: simulated metrics are compared by bound, not exactly")
    return 0 if compare(bench, a["sets"][0], b["sets"][0], same_seed) else 1


# -- pinning outcomes ---------------------------------------------------------


def run_record(bench) -> int:
    """Write expected.json: outcome of every input set at the recorded seeds."""
    expected: Dict[str, Dict[str, object]] = {}
    for workload in bench.workloads.WORKLOADS.values():
        if workload.inputs in expected:
            continue  # the tcp twin must reproduce the fork outcome
        expected[workload.inputs] = {}
        for seed in bench.RECORDED_SEEDS:
            prepared = bench.workloads.prepare(workload, seed)
            try:
                expected[workload.inputs][str(seed)] = {
                    mechanism: prepared.run(mechanism)["summary"]
                    for mechanism in bench.workloads.MECHANISMS
                }
            finally:
                prepared.close()
            print("perf: recorded %s seed %d" % (workload.inputs, seed))
    with open(bench.EXPECTED_PATH, "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run only this workload and print one result object")
    parser.add_argument("--seed", type=int, default=0, help="the only randomness input")
    parser.add_argument("--seconds", type=float, help="how long one pass measures (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="with --workload: 0 = end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--sets", type=int, default=1, help="run the whole benchmark this many times and report agreement")
    parser.add_argument("--out", type=Path, help="directory for spans and the result JSON (default: a fresh temp dir; with --workload: nothing is written)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"))
    parser.add_argument("--record", action="store_true", help="rewrite perf/expected.json for the recorded seeds")
    args = parser.parse_args(argv)
    bench = _import_benchmark()
    if args.compare:
        return run_compare(bench, args.compare)
    if args.record:
        return run_record(bench)
    if args.seconds is None:
        args.seconds = 0.0 if args.scale == "smoke" else float(_contract()["run_seconds"])
    if args.workload:
        if args.workload not in bench.workloads.WORKLOADS:
            parser.error("unknown workload %r (have: %s)" % (args.workload, ", ".join(bench.workloads.WORKLOADS)))
        return run_one(bench, args)
    return run_report(bench, args)


if __name__ == "__main__":
    sys.exit(main())
