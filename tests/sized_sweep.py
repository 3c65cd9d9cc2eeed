"""Run a registered sweep at a test's own sizes."""

from dataclasses import replace

from repro.experiments.runner import run_sweep
from repro.experiments.spec import REGISTRY, ScalePreset


def sized_sweep(name, points, seeds=(0,), **fixed):
    """The registered sweep ``name`` over ``points`` with ``fixed`` sizes.

    Only the "small" preset is swapped, so the cell, the mechanisms, the
    ratio pairing and the seed plumbing are the ones ``repro run <name>``
    uses.
    """
    spec = replace(
        REGISTRY.get(name),
        scales={"small": ScalePreset(points=tuple(points), fixed=fixed)},
    )
    return run_sweep(spec, seeds=seeds)
