"""Command-line interface: regenerate any paper artefact from a shell.

Usage::

    python -m repro list
    python -m repro run fig1
    python -m repro run fig4 --scale paper --seed 3
    python -m repro run fig5a --seeds 3 --jobs 4 --json
    python -m repro run all --scale small --json
    python -m repro bench --filter supply --repeat 5
    python -m repro bench --json --label pr2
    python -m repro bench --baseline BENCH_pr2.json --fail-above 50
    python -m repro profile fig5a --scale paper

Every experiment is a :class:`~repro.experiments.spec.ScenarioSpec` in
the global registry; the CLI is a thin shell over
:func:`~repro.experiments.runner.run_sweep` and
:func:`~repro.experiments.runner.run_single`.

``--scale small`` (default) runs each experiment on a reduced federation
that finishes in seconds-to-minutes; ``--scale paper`` uses the paper's
full dimensions (100 nodes, 10,000 queries) and can take much longer.
``--seeds N`` replicates each run across N derived seeds (the first is
``--seed`` itself), ``--jobs N`` fans sweep cells out over N worker
processes (results are byte-identical to a serial run), and ``--json``
writes a versioned artifact under ``benchmarks/results/``.

``bench`` times the registered microbenchmark kernels
(:mod:`repro.bench`) and optionally writes a ``BENCH_<label>.json``
artifact next to the experiment artifacts; ``--baseline`` adds a speedup
column against a previously written artifact, and ``--fail-above PCT``
turns the comparison into a regression gate (exit code 1 when any kernel
is more than PCT percent slower than its baseline — the CI bench-smoke
check runs with a generous tolerance to absorb shared-runner noise).

``profile`` runs one experiment under cProfile and prints the hottest
functions — the first stop when a paper-scale run feels slow.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, Optional, Sequence

from . import experiments as _experiments  # noqa: F401  (populates the registry)
from .experiments.runner import (
    DEFAULT_RESULTS_DIR,
    replicate_seeds,
    run_single,
    run_sweep,
    single_run_payload,
    write_json_artifact,
)
from .experiments.spec import REGISTRY, SCALES, ScenarioSpec

__all__ = ["main", "EXPERIMENTS"]

#: Mirrors :data:`repro.profiling.SORT_KEYS` without importing cProfile
#: machinery at CLI-parse time.
_PROFILE_SORT_KEYS = ("tottime", "cumtime", "ncalls")


def _legacy_entry(name: str) -> Callable[[str, int], object]:
    """A ``callable(scale, seed)`` view of one registered experiment.

    Sweepable specs return a :class:`SweepResult`; plain specs return the
    driver's native result object.  Both carry ``render()``/``to_dict()``.
    """

    def run(scale: str, seed: int) -> object:
        spec = REGISTRY.get(name)
        if spec.sweepable:
            return run_sweep(spec, scale=scale, seeds=(seed,))
        return run_single(spec, scale, seed)

    return run


#: Legacy registry view: experiment name -> callable(scale, seed) returning
#: an object with a ``render()`` method.  Kept importable for callers of the
#: pre-registry CLI; the names are exactly ``REGISTRY.names()``.
EXPERIMENTS: Dict[str, Callable[[str, int], object]] = {
    name: _legacy_entry(name) for name in REGISTRY.names()
}


def _progress(message: str) -> None:
    if sys.stderr.isatty():
        print(message, file=sys.stderr, flush=True)


def _sweep_progress(name: str) -> Callable[[int, int, object], None]:
    def report(done: int, total: int, result: object) -> None:
        _progress("%s: cell %d/%d" % (name, done, total))

    return report


def _run_one(
    name: str,
    scale: str,
    seeds: Sequence[int],
    jobs: int,
    as_json: bool,
    out_dir: str,
    fault_seed: Optional[int] = None,
    pool=None,
) -> None:
    """Run one registered experiment and print/persist its results.

    ``pool`` is the shared :class:`~concurrent.futures
    .ProcessPoolExecutor` created once in :func:`main` for ``--jobs N``,
    so ``run all`` reuses warm workers across specs instead of spawning a
    fresh pool per experiment.
    """
    spec: ScenarioSpec = REGISTRY.get(name)
    started = time.time()
    if spec.sweepable:
        result = run_sweep(
            spec,
            scale=scale,
            seeds=seeds,
            jobs=jobs,
            progress=_sweep_progress(name),
            fault_seed=fault_seed if spec.fault_aware else None,
            pool=pool,
        )
        rendered = result.render()
        payload = result.to_dict()
    else:
        results = []
        for seed in seeds:
            _progress("%s: seed %d" % (name, seed))
            results.append(run_single(spec, scale, seed))
        rendered = results[0].render()
        if len(results) > 1:
            rendered += "\n(%d replicate seeds measured; JSON has all)" % len(
                results
            )
        payload = single_run_payload(spec, scale, seeds, results)
    elapsed = time.time() - started
    print("=== %s (%.1fs) ===" % (name, elapsed))
    print(rendered)
    if as_json:
        path = write_json_artifact(name, payload, out_dir)
        print("wrote %s" % path)
    print()


def _run_bench(args: argparse.Namespace) -> int:
    """Handle the ``bench`` subcommand."""
    from .bench import (
        bench_payload,
        confirm_regressions,
        load_baseline,
        render_results,
        resolve_auto_baseline,
        run_benchmarks,
        write_bench_artifact,
    )
    from .bench.harness import _check_label

    if args.json:
        try:
            _check_label(args.label)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    if args.fail_above is not None and not args.baseline:
        print("--fail-above requires --baseline", file=sys.stderr)
        return 2
    if args.fail_above is not None and args.fail_above < 0:
        print("--fail-above must be non-negative", file=sys.stderr)
        return 2
    baseline = None
    baseline_path = args.baseline
    if baseline_path == "auto":
        try:
            baseline_path = str(resolve_auto_baseline())
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        _progress("bench: --baseline auto -> %s" % baseline_path)
    if baseline_path:
        try:
            baseline = load_baseline(baseline_path)
        except (OSError, ValueError) as exc:
            print("cannot read baseline %s: %s" % (baseline_path, exc), file=sys.stderr)
            return 2
    try:
        results = run_benchmarks(
            name_filter=args.filter,
            repeat=args.repeat,
            progress=lambda name: _progress("bench: %s" % name),
            measure_mem=args.mem,
        )
        rendered = render_results(results, baseline=baseline)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(rendered)
    if args.fail_above is not None:
        # Gate before the artifact write: confirm_regressions re-measures
        # flagged kernels (shared-runner load phases read 30-60% slow for
        # a minute at a time) and folds the confirmed timings back into
        # `results`, so the artifact records the numbers the gate judged.
        regressions = confirm_regressions(
            baseline,
            results,
            args.fail_above,
            repeat=args.repeat,
            progress=lambda msg: _progress("bench: %s" % msg),
        )
    if args.json:
        payload = bench_payload(results, label=args.label)
        path = write_bench_artifact(payload, label=args.label, directory=args.out)
        print("wrote %s" % path)
    if args.fail_above is not None:
        if regressions:
            print(
                "FAIL: %d kernel(s) regressed more than %.0f%% vs %s"
                % (len(regressions), args.fail_above, baseline_path),
                file=sys.stderr,
            )
            for name, pct in sorted(regressions.items()):
                print("  %s: +%.1f%%" % (name, pct), file=sys.stderr)
            return 1
        print(
            "OK: no kernel regressed more than %.0f%% vs %s"
            % (args.fail_above, baseline_path)
        )
    return 0


def _run_profile(args: argparse.Namespace) -> int:
    """Handle the ``profile`` subcommand."""
    import json as _json

    from .profiling import (
        collect_experiment,
        collect_kernel,
        profile_payload,
        _check_render_args,
        _render,
    )

    if (args.kernel is None) == (args.experiment is None):
        print(
            "profile needs exactly one target: an experiment id or "
            "--kernel NAME",
            file=sys.stderr,
        )
        return 2
    started = time.time()
    try:
        _check_render_args(args.sort, args.limit)
        if args.kernel is not None:
            target = "kernel:%s" % args.kernel
            profiler = collect_kernel(args.kernel)
            header = "=== profile: --kernel %s (%.1fs wall) ===" % (
                args.kernel,
                time.time() - started,
            )
        else:
            target = "experiment:%s scale=%s seed=%d" % (
                args.experiment,
                args.scale,
                args.seed,
            )
            profiler = collect_experiment(
                args.experiment, scale=args.scale, seed=args.seed
            )
            header = "=== profile: %s --scale %s --seed %d (%.1fs wall) ===" % (
                args.experiment,
                args.scale,
                args.seed,
                time.time() - started,
            )
    except (KeyError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.json:
        payload = profile_payload(
            profiler, target, sort=args.sort, limit=args.limit
        )
        print(_json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(header)
    print(_render(profiler, args.sort, args.limit, None))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's tables and figures.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("list", help="list available experiments")
    run = commands.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument(
        "experiment",
        choices=REGISTRY.names() + ["all"],
        help="experiment id (see 'list')",
    )
    run.add_argument(
        "--scale",
        # Every spec carries the universal "small"/"paper" presets; a
        # spec may register extras, so the run command accepts the union
        # and validates the (experiment, scale) pair after parsing.
        choices=sorted(
            {
                scale
                for name in REGISTRY.names()
                for scale in REGISTRY.get(name).scales
            }
        ),
        default="small",
        help="federation/workload size (default: small)",
    )
    run.add_argument("--seed", type=int, default=0, help="base random seed")
    run.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        metavar="N",
        help="base seed of the fault streams of fault-aware experiments "
        "(e.g. chaos); independent of --seed, default 0",
    )
    run.add_argument(
        "--seeds",
        type=int,
        default=1,
        help="number of replicate seeds derived from --seed (default: 1)",
    )
    run.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for sweep cells (default: 1, serial)",
    )
    run.add_argument(
        "--json",
        action="store_true",
        help="write a versioned JSON artifact per experiment",
    )
    run.add_argument(
        "--out",
        default=DEFAULT_RESULTS_DIR,
        help="artifact directory (default: %s)" % DEFAULT_RESULTS_DIR,
    )
    bench = commands.add_parser(
        "bench", help="time the hot-path microbenchmark kernels"
    )
    bench.add_argument(
        "--filter",
        default=None,
        metavar="SUBSTR",
        help="only run kernels whose name contains SUBSTR",
    )
    bench.add_argument(
        "--repeat",
        type=int,
        default=3,
        help="timing rounds per kernel; the best round wins (default: 3)",
    )
    bench.add_argument(
        "--json",
        action="store_true",
        help="write a BENCH_<label>.json artifact",
    )
    bench.add_argument(
        "--label",
        default="local",
        help="artifact label: BENCH_<label>.json (default: local)",
    )
    bench.add_argument(
        "--out",
        default=DEFAULT_RESULTS_DIR,
        help="artifact directory (default: %s)" % DEFAULT_RESULTS_DIR,
    )
    bench.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="earlier BENCH_*.json to show per-kernel speedups against; "
        "'auto' picks the newest committed BENCH_pr<N>.json at the repo "
        "root",
    )
    bench.add_argument(
        "--mem",
        action="store_true",
        help="also record each kernel's peak heap growth (tracemalloc; "
        "measured on an extra untimed call)",
    )
    bench.add_argument(
        "--fail-above",
        type=float,
        default=None,
        metavar="PCT",
        help="exit non-zero if any kernel is more than PCT%% slower than "
        "the --baseline artifact (the CI regression gate)",
    )
    profile = commands.add_parser(
        "profile",
        help="run one experiment under cProfile and print the hot spots",
    )
    profile.add_argument(
        "experiment",
        nargs="?",
        default=None,
        choices=REGISTRY.names(),
        help="experiment id (see 'list'); omit when using --kernel",
    )
    profile.add_argument(
        "--kernel",
        default=None,
        metavar="NAME",
        help="profile a registered bench kernel instead of an experiment "
        "(same seeded fixture 'repro bench' times)",
    )
    profile.add_argument(
        "--scale",
        choices=SCALES,
        default="small",
        help="federation/workload size (default: small)",
    )
    profile.add_argument("--seed", type=int, default=0, help="base random seed")
    profile.add_argument(
        "--sort",
        choices=_PROFILE_SORT_KEYS,
        default="tottime",
        help="pstats sort key (default: tottime)",
    )
    profile.add_argument(
        "--limit",
        type=int,
        default=25,
        help="number of rows to print (default: 25)",
    )
    profile.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable hotspot rows (versioned schema) "
        "instead of the pstats table",
    )
    # `--top` writes into the same dest as `--limit`; SUPPRESS keeps the
    # alias from clobbering --limit's default at namespace set-up.
    profile.add_argument(
        "--top",
        type=int,
        dest="limit",
        default=argparse.SUPPRESS,
        metavar="N",
        help="alias for --limit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        for name in REGISTRY.names():
            print(name)
        return 0
    if args.command == "bench":
        if args.repeat < 1:
            print("--repeat must be >= 1", file=sys.stderr)
            return 2
        return _run_bench(args)
    if args.command == "profile":
        return _run_profile(args)

    if args.seeds < 1:
        print("--seeds must be >= 1", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 2
    seeds = replicate_seeds(args.seed, args.seeds)
    names = REGISTRY.names() if args.experiment == "all" else [args.experiment]
    for name in names:
        if args.scale not in REGISTRY.get(name).scales:
            print(
                "experiment %r has no scale %r (known: %s)"
                % (name, args.scale, ", ".join(sorted(REGISTRY.get(name).scales))),
                file=sys.stderr,
            )
            return 2
    if args.fault_seed is not None and args.experiment != "all":
        if not REGISTRY.get(args.experiment).fault_aware:
            print(
                "--fault-seed only applies to fault-aware experiments",
                file=sys.stderr,
            )
            return 2
    pool = None
    try:
        if args.jobs > 1:
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(max_workers=args.jobs)
        for name in names:
            _run_one(
                name,
                args.scale,
                seeds,
                args.jobs,
                args.json,
                args.out,
                fault_seed=args.fault_seed,
                pool=pool,
            )
    finally:
        if pool is not None:
            pool.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
