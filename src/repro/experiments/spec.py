"""Declarative experiment specifications and the experiment registry.

Every paper artefact (figure, table, ablation, extension) is described by
one frozen :class:`ScenarioSpec`: the scale presets ("small" vs "paper"
sizes), the sweep axis, the mechanisms compared, and — for sweepable
experiments — a picklable *cell function* that evaluates one independent
(mechanism, sweep-point, seed) unit of work (:class:`SweepCell`).  A
sweepable experiment exists once, as its cell function and its spec;
the CLI, the tests and the examples all run it through the sweep runner.

Driver modules register their spec into the global :data:`REGISTRY` at
import time, so importing :mod:`repro.experiments` yields the complete
catalogue; the CLI and the sweep runner (:mod:`repro.experiments.runner`)
are generic consumers of it.  Adding a new experiment is therefore a
``register(ScenarioSpec(...))`` call, not a new CLI code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

__all__ = [
    "SCALES",
    "ScalePreset",
    "ScenarioSpec",
    "SweepCell",
    "ExperimentRegistry",
    "REGISTRY",
    "register",
]

#: The two supported federation/workload sizes.
SCALES = ("small", "paper")


@dataclass(frozen=True)
class ScalePreset:
    """Concrete sizes for one scale of a scenario.

    ``points`` are the sweep-axis values (empty for non-sweep scenarios);
    ``fixed`` holds the remaining keyword arguments passed verbatim to the
    scenario's runner or cell function.  Everything in ``fixed`` must be
    picklable — sweep cells may execute in worker processes.
    """

    points: Tuple[object, ...] = ()
    fixed: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class SweepCell:
    """One independent (mechanism, sweep-point, seed) unit of work.

    Cells are expanded from a spec by the runner; ``seed`` is the
    replicate seed the cell function receives and ``cell_key`` is the
    stable identity used for deterministic seed derivation and for
    matching cached/parallel results back to their grid position.
    """

    experiment: str
    mechanism: str
    point: object
    point_index: int
    seed: int
    seed_index: int

    @property
    def cell_key(self) -> Tuple[object, ...]:
        """Stable identity of this cell within the sweep grid."""
        return (
            self.experiment,
            self.mechanism,
            self.point_index,
            self.seed_index,
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative description of one experiment.

    Two kinds of scenario share the class:

    * **plain** scenarios provide ``runner`` — called as
      ``runner(seed=seed, **preset.fixed)`` and returning a result object
      with ``render()`` and ``to_dict()``;
    * **sweepable** scenarios provide ``cell`` + ``axis`` +
      ``mechanisms`` — the runner expands the preset's points into
      :class:`SweepCell` s and executes them serially or on a process
      pool.  ``cell`` must be a module-level (picklable) callable with
      signature ``cell(mechanism, point, point_index, seed, **fixed)``
      returning a flat mapping of metric name to number.

    ``ratio_of`` optionally names a ``(numerator, denominator)``
    mechanism pair whose paired per-seed ratio of ``primary_metric`` is
    the figure's headline series (e.g. greedy/qa-nt response).
    """

    name: str
    title: str
    scales: Mapping[str, ScalePreset]
    runner: Optional[Callable[..., object]] = None
    cell: Optional[Callable[..., Mapping[str, float]]] = None
    axis: str = ""
    mechanisms: Tuple[str, ...] = ()
    primary_metric: str = "mean_response_ms"
    ratio_of: Optional[Tuple[str, str]] = None
    #: Sweepable scenarios that inject faults set this; the runner then
    #: derives a per-cell ``fault_seed`` keyword (from the sweep-level
    #: fault seed) in the parent process, so fault streams are
    #: reproducible independently of workload seeds and identical across
    #: serial and ``--jobs N`` runs.
    fault_aware: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario needs a name")
        if not self.scales:
            raise ValueError("scenario %r needs at least one scale preset" % self.name)
        if (self.runner is None) == (self.cell is None):
            raise ValueError(
                "scenario %r must define exactly one of runner/cell" % self.name
            )
        if self.cell is not None:
            if not self.axis or not self.mechanisms:
                raise ValueError(
                    "sweepable scenario %r needs an axis and mechanisms" % self.name
                )
            for scale, preset in self.scales.items():
                if not preset.points:
                    raise ValueError(
                        "sweepable scenario %r has no points at scale %r"
                        % (self.name, scale)
                    )
        if self.fault_aware and self.cell is None:
            raise ValueError(
                "fault-aware scenario %r must be sweepable" % self.name
            )
        if self.ratio_of is not None:
            for mechanism in self.ratio_of:
                if mechanism not in self.mechanisms:
                    raise ValueError(
                        "ratio mechanism %r not in %r" % (mechanism, self.mechanisms)
                    )

    @property
    def sweepable(self) -> bool:
        """True when the scenario expands into independent sweep cells."""
        return self.cell is not None

    def preset(self, scale: str) -> ScalePreset:
        """The preset for ``scale`` (KeyError lists the known scales)."""
        try:
            return self.scales[scale]
        except KeyError:
            raise KeyError(
                "scenario %r has no scale %r (known: %s)"
                % (self.name, scale, ", ".join(sorted(self.scales)))
            ) from None


class ExperimentRegistry:
    """Name-keyed catalogue of every registered :class:`ScenarioSpec`."""

    def __init__(self) -> None:
        self._specs: Dict[str, ScenarioSpec] = {}

    def register(self, spec: ScenarioSpec) -> ScenarioSpec:
        """Add ``spec``; duplicate names are a programming error."""
        if spec.name in self._specs:
            raise ValueError("experiment %r already registered" % spec.name)
        self._specs[spec.name] = spec
        return spec

    def unregister(self, name: str) -> None:
        """Remove a spec (mainly for tests registering throwaway specs)."""
        del self._specs[name]

    def get(self, name: str) -> ScenarioSpec:
        """Look up a spec by name with a helpful error."""
        try:
            return self._specs[name]
        except KeyError:
            raise KeyError(
                "unknown experiment %r (known: %s)"
                % (name, ", ".join(self.names()))
            ) from None

    def names(self) -> List[str]:
        """All registered experiment names, sorted."""
        return sorted(self._specs)

    def items(self) -> List[Tuple[str, ScenarioSpec]]:
        """(name, spec) pairs, sorted by name."""
        return sorted(self._specs.items())

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __contains__(self, name: object) -> bool:
        return name in self._specs

    def __len__(self) -> int:
        return len(self._specs)


#: The process-wide registry every driver module registers into.
REGISTRY = ExperimentRegistry()


def register(spec: ScenarioSpec) -> ScenarioSpec:
    """Register ``spec`` into the global :data:`REGISTRY`."""
    return REGISTRY.register(spec)
