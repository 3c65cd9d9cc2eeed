"""Command-line interface: regenerate any paper artefact from a shell.

Usage::

    python -m repro list
    python -m repro run fig1
    python -m repro run fig4 --scale paper --seed 3
    python -m repro run fig5a --seeds 3 --jobs 4 --json
    python -m repro run all --scale small --json

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
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Optional, Sequence

from . import experiments as _experiments  # noqa: F401  (populates the registry)
from .experiments.runner import (
    DEFAULT_RESULTS_DIR,
    replicate_seeds,
    run_single,
    run_sweep,
    single_run_payload,
    write_json_artifact,
)
from .experiments.spec import REGISTRY, ScenarioSpec

__all__ = ["main"]


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
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        for name in REGISTRY.names():
            print(name)
        return 0

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
