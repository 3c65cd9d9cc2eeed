"""Tests for the declarative experiment registry and the sweep runner."""

import inspect
import json

import pytest

from repro.cli import main
from repro.experiments.fig5 import fig5a_cell
from repro.experiments.runner import (
    SweepResult,
    derive_cell_seed,
    expand_cells,
    replicate_seeds,
    run_sweep,
)
from repro.experiments.spec import (
    REGISTRY,
    SCALES,
    ExperimentRegistry,
    ScalePreset,
    ScenarioSpec,
    register,
)

#: A deliberately tiny sweep (8 nodes, 4 s horizon) so the parallel-vs-
#: serial and CLI tests stay fast while still exercising the real cell.
def _tiny_spec(name="tiny-fig5a"):
    return ScenarioSpec(
        name=name,
        title="tiny fig5a sweep for tests",
        cell=fig5a_cell,
        axis="load_fraction",
        mechanisms=("qa-nt", "greedy"),
        ratio_of=("greedy", "qa-nt"),
        scales={
            "small": ScalePreset(
                points=(0.5, 1.5),
                fixed={"num_nodes": 8, "horizon_ms": 4_000.0, "frequency_hz": 0.5},
            ),
            "paper": ScalePreset(
                points=(0.5, 1.5),
                fixed={"num_nodes": 8, "horizon_ms": 4_000.0, "frequency_hz": 0.5},
            ),
        },
    )


class TestSeedDerivation:
    def test_replicate_seeds_starts_at_base(self):
        assert replicate_seeds(7, 3)[0] == 7

    def test_replicate_seeds_deterministic(self):
        assert replicate_seeds(7, 4) == replicate_seeds(7, 4)

    def test_replicate_seeds_distinct(self):
        seeds = replicate_seeds(0, 5)
        assert len(set(seeds)) == 5

    def test_derive_cell_seed_deterministic(self):
        key = ("fig5a", "qa-nt", 0, 1)
        assert derive_cell_seed(3, key) == derive_cell_seed(3, key)

    def test_derive_cell_seed_varies_with_key(self):
        a = derive_cell_seed(3, ("fig5a", "qa-nt", 0, 1))
        b = derive_cell_seed(3, ("fig5a", "qa-nt", 1, 1))
        assert a != b


class TestExpandCells:
    def test_grid_covers_every_combination(self):
        spec = _tiny_spec()
        cells = expand_cells(spec, "small", (0, 1))
        assert len(cells) == 2 * 2 * 2  # seeds x points x mechanisms
        keys = {cell.cell_key for cell in cells}
        assert len(keys) == len(cells)

    def test_mechanisms_share_seed_at_a_point(self):
        # Paired comparison: both mechanisms must see the same seed.
        spec = _tiny_spec()
        cells = expand_cells(spec, "small", (0,))
        by_point = {}
        for cell in cells:
            by_point.setdefault(cell.point_index, set()).add(cell.seed)
        for seeds in by_point.values():
            assert len(seeds) == 1


@pytest.mark.slow
class TestSweepExecution:
    @pytest.fixture(scope="class")
    def spec(self):
        return _tiny_spec()

    @pytest.fixture(scope="class")
    def serial(self, spec):
        return run_sweep(spec, scale="small", seeds=replicate_seeds(0, 2), jobs=1)

    def test_parallel_is_byte_identical_to_serial(self, spec, serial):
        parallel = run_sweep(
            spec, scale="small", seeds=replicate_seeds(0, 2), jobs=2
        )
        serial_bytes = json.dumps(serial.to_dict(), sort_keys=True)
        parallel_bytes = json.dumps(parallel.to_dict(), sort_keys=True)
        assert serial_bytes == parallel_bytes

    def test_shared_pool_across_specs_is_byte_identical(self, spec, serial):
        # ``run all --jobs N`` hands every spec the same caller-owned
        # executor; pin that reuse changes no bytes versus fresh serial
        # sweeps, for the first spec AND a second one through the same
        # (now warm) workers.
        from concurrent.futures import ProcessPoolExecutor

        other = _tiny_spec("tiny-fig5a-second")
        serial_other = run_sweep(
            other, scale="small", seeds=replicate_seeds(0, 2), jobs=1
        )
        with ProcessPoolExecutor(max_workers=2) as pool:
            pooled = run_sweep(
                spec,
                scale="small",
                seeds=replicate_seeds(0, 2),
                jobs=2,
                pool=pool,
            )
            pooled_other = run_sweep(
                other,
                scale="small",
                seeds=replicate_seeds(0, 2),
                jobs=2,
                pool=pool,
            )
        assert json.dumps(pooled.to_dict(), sort_keys=True) == json.dumps(
            serial.to_dict(), sort_keys=True
        )
        assert json.dumps(
            pooled_other.to_dict(), sort_keys=True
        ) == json.dumps(serial_other.to_dict(), sort_keys=True)

    def test_json_round_trip(self, serial):
        restored = SweepResult.from_dict(serial.to_dict())
        assert restored.experiment == serial.experiment
        assert restored.points == serial.points
        assert restored.mechanisms == serial.mechanisms
        assert restored.seeds == serial.seeds
        for mechanism in serial.mechanisms:
            for index in range(len(serial.points)):
                assert restored.stats(mechanism, index).values == pytest.approx(
                    serial.stats(mechanism, index).values
                )

    def test_multi_seed_stats(self, serial):
        stats = serial.stats("qa-nt", 0)
        assert len(stats.values) == 2
        assert stats.stdev >= 0.0

    def test_ratio_series_present(self, serial):
        ratios = serial.ratio_series()
        assert len(ratios) == len(serial.points)
        assert all(r.mean > 0 for r in ratios)

    def test_render_mentions_axis_and_seeds(self, serial):
        text = serial.render()
        assert "load_fraction" in text
        assert "seeds" in text


class TestRegistry:
    EXPECTED = {
        "fig1", "fig2", "fig3", "fig4", "fig5a", "fig5b", "fig5c",
        "fig6", "fig7", "table2", "table3",
        "ablation-lambda", "ablation-period", "ablation-partial",
        "ablation-markov", "ablation-rounding", "failures", "chaos",
        "scaling", "scaling-shards",
    }

    def test_every_experiment_registered(self):
        assert set(REGISTRY.names()) == self.EXPECTED

    def test_every_spec_has_both_scales(self):
        for name in REGISTRY.names():
            spec = REGISTRY.get(name)
            for scale in SCALES:
                spec.preset(scale)  # must not raise

    def test_sweepable_specs_have_points(self):
        for name in REGISTRY.names():
            spec = REGISTRY.get(name)
            if spec.sweepable:
                for scale in SCALES:
                    assert spec.preset(scale).points

    def test_presets_bind_to_their_callable(self):
        # A mistyped key in a "paper" preset otherwise surfaces minutes
        # into a paper-scale run; binding the signature costs nothing.
        for __, spec in REGISTRY.items():
            for preset in spec.scales.values():
                if spec.sweepable:
                    extra = {"fault_seed": 0} if spec.fault_aware else {}
                    args = (spec.mechanisms[0], preset.points[0], 0, 0)
                    inspect.signature(spec.cell).bind(
                        *args, **preset.fixed, **extra
                    )
                else:
                    inspect.signature(spec.runner).bind(seed=0, **preset.fixed)

    def test_duplicate_registration_rejected(self):
        registry = ExperimentRegistry()
        registry.register(_tiny_spec())
        with pytest.raises(ValueError):
            registry.register(_tiny_spec())

    def test_unknown_experiment_raises_keyerror(self):
        with pytest.raises(KeyError):
            REGISTRY.get("nonexistent")

    def test_spec_requires_runner_or_cell(self):
        with pytest.raises(ValueError):
            ScenarioSpec(
                name="broken",
                title="no runner and no cell",
                scales={
                    "small": ScalePreset(),
                    "paper": ScalePreset(),
                },
            )


@pytest.mark.slow
class TestCliSweep:
    def test_run_json_with_seeds_writes_artifact(self, tmp_path, capsys):
        register(_tiny_spec("tiny-cli-sweep"))
        try:
            code = main(
                [
                    "run",
                    "tiny-cli-sweep",
                    "--json",
                    "--seeds",
                    "2",
                    "--out",
                    str(tmp_path),
                ]
            )
        finally:
            REGISTRY.unregister("tiny-cli-sweep")
        assert code == 0
        out = capsys.readouterr().out
        assert "tiny-cli-sweep" in out
        artifact = tmp_path / "tiny-cli-sweep.json"
        assert artifact.exists()
        payload = json.loads(artifact.read_text())
        assert payload["schema_version"] == 1
        assert payload["kind"] == "sweep"
        assert len(payload["seeds"]) == 2
        summary = payload["summary"]["qa-nt"]["mean_response_ms"]
        assert all("mean" in point and "stdev" in point for point in summary)

    def test_plain_experiment_json(self, tmp_path, capsys):
        code = main(
            ["run", "fig1", "--json", "--seeds", "2", "--out", str(tmp_path)]
        )
        assert code == 0
        payload = json.loads((tmp_path / "fig1.json").read_text())
        assert payload["schema_version"] == 1
        assert payload["kind"] == "single"
        assert len(payload["results"]) == 2

    def test_bad_seed_count_rejected(self):
        assert main(["run", "fig1", "--seeds", "0"]) == 2
