"""Tests for fig6 calibration and the experiment setup helpers."""

import functools
import math

import pytest

from repro.allocation import QantAllocator
from repro.experiments import fig6
from repro.experiments.fig6 import _calibrate_crossover, fig6_cell
from repro.experiments.setups import (
    MechanismRun,
    sinusoid_trace_for_load,
    zipf_trace_for_world,
)
from repro.sim import (
    FederationConfig,
    MetricsCollector,
    ShardedFederation,
    build_federation,
)


class TestCrossoverCalibration:
    def test_capacity_moved_to_crossover(self, tiny_zipf_world):
        world = tiny_zipf_world
        crossover_ms = 5_000.0
        calibrated = _calibrate_crossover(world, crossover_ms)
        capacity = calibrated.capacity_qpms([1.0] * len(calibrated.classes))
        expected = len(calibrated.classes) / crossover_ms
        assert capacity == pytest.approx(expected, rel=0.02)

    def test_structure_preserved(self, tiny_zipf_world):
        calibrated = _calibrate_crossover(tiny_zipf_world, 5_000.0)
        assert calibrated.classes == tiny_zipf_world.classes
        assert calibrated.placement is tiny_zipf_world.placement
        assert calibrated.specs == tiny_zipf_world.specs

    def test_relative_costs_preserved(self, tiny_zipf_world):
        world = tiny_zipf_world
        calibrated = _calibrate_crossover(world, 5_000.0)
        qc = world.classes[0]
        spec_a, spec_b = world.specs[0], world.specs[1]
        original_ratio = world.cost_model.execution_time_ms(
            qc, spec_a
        ) / world.cost_model.execution_time_ms(qc, spec_b)
        new_ratio = calibrated.cost_model.execution_time_ms(
            qc, spec_a
        ) / calibrated.cost_model.execution_time_ms(qc, spec_b)
        assert new_ratio == pytest.approx(original_ratio)

    def test_requires_rescalable_model(self, tiny_two_query_world):
        with pytest.raises(TypeError):
            _calibrate_crossover(tiny_two_query_world, 5_000.0)

    def test_cell_refuses_an_unbounded_trace(self):
        # Neither a horizon nor a query cap: the trace would never end.
        with pytest.raises(ValueError, match="finite horizon_ms or max_queries"):
            fig6_cell("qa-nt", 10_000.0, 0, 0, max_queries=None)


class TestDrainedCell:
    @pytest.mark.parametrize("mechanism", ["qa-nt", "greedy"])
    def test_a_cell_drains_to_empty(self, mechanism, monkeypatch):
        # Deep overload (200 queries of eight classes, 100 ms apart, on
        # twelve nodes calibrated to saturate at 17 s), drained to empty
        # as EXPERIMENTS.md E8 scores Fig. 6: every query finishes, so
        # nothing is censored.
        monkeypatch.setattr(
            fig6,
            "FederationConfig",
            functools.partial(FederationConfig, drain_ms=math.inf),
        )
        cell = fig6_cell(
            mechanism,
            100.0,
            0,
            0,
            num_nodes=12,
            num_relations=60,
            num_classes=8,
            max_queries=200,
        )
        assert cell["completed"] == 200
        assert cell["dropped"] == cell["in_flight"] == 0
        assert cell["censored_mean_response_ms"] == cell["mean_response_ms"]
        assert cell["messages_per_query"] == cell["messages"] / 200


class TestTraceHelpers:
    def test_sinusoid_trace_mean_load(self, tiny_two_query_world):
        world = tiny_two_query_world
        load = 0.8
        horizon = 200_000.0
        trace = sinusoid_trace_for_load(
            world, load_fraction=load, horizon_ms=horizon, seed=1
        )
        capacity = world.capacity_qpms([2.0, 1.0])
        realised_rate = len(trace) / horizon
        assert realised_rate == pytest.approx(load * capacity, rel=0.2)

    def test_sinusoid_trace_mix_is_two_to_one(self, tiny_two_query_world):
        trace = sinusoid_trace_for_load(
            tiny_two_query_world,
            load_fraction=1.0,
            horizon_ms=300_000.0,
            seed=2,
        )
        q1 = sum(1 for e in trace if e.class_index == 0)
        q2 = sum(1 for e in trace if e.class_index == 1)
        assert q1 == pytest.approx(2 * q2, rel=0.2)

    def test_zipf_trace_classes_within_world(self, tiny_zipf_world):
        trace = zipf_trace_for_world(
            tiny_zipf_world,
            mean_interarrival_ms=500.0,
            horizon_ms=30_000.0,
            max_queries=200,
            seed=3,
        )
        valid = set(range(len(tiny_zipf_world.classes)))
        assert {e.class_index for e in trace} <= valid

    def test_mechanism_run_mean_response(self):
        metrics = MetricsCollector()
        run = MechanismRun(mechanism="x", metrics=metrics, messages=0)
        assert math.isnan(run.mean_response_ms)


class TestCensoredMeanResponse:
    """Fig. 6's censored mean: every offered query counts, an unfinished
    one with its wait until the run ended."""

    @staticmethod
    def _run(world, load, drain_ms):
        trace = sinusoid_trace_for_load(world, load, 10_000.0, seed=1)
        federation = build_federation(
            world.specs,
            world.placement,
            world.classes,
            world.cost_model,
            QantAllocator(),
            FederationConfig(seed=1, drain_ms=drain_ms),
        )
        return trace, federation.run(trace)

    def test_unfinished_queries_count_their_wait(self, tiny_two_query_world):
        """3x load and no drain: QA-NT leaves queries both queued on
        nodes and refused in its retry pool."""
        trace, metrics = self._run(tiny_two_query_world, 3.0, 0.0)
        assert metrics.in_flight > 0 and metrics.dropped > 0
        end_of_run = max(event.time_ms for event in trace)
        outcomes = metrics.outcomes
        finished = {outcome.qid for outcome in outcomes}
        arrivals = [event.time_ms for event in trace]
        assert len(finished) == metrics.completed == len(outcomes)
        waits = [
            end_of_run - arrival
            for qid, arrival in enumerate(arrivals)
            if qid not in finished
        ]
        assert len(waits) == metrics.in_flight + metrics.dropped
        responses = [outcome.response_ms for outcome in outcomes]
        expected = (math.fsum(responses) + math.fsum(waits)) / len(trace)
        assert metrics.censored_mean_response_ms() == pytest.approx(
            expected, rel=1e-12
        )

    def test_equals_the_mean_when_every_query_finished(
        self, tiny_two_query_world
    ):
        trace, metrics = self._run(tiny_two_query_world, 0.3, 60_000.0)
        assert metrics.completed == len(trace)
        assert metrics.censored_mean_response_ms() == metrics.mean_response_ms()

    def test_planes_without_waits_refuse(self, tiny_two_query_world):
        world = tiny_two_query_world
        trace = sinusoid_trace_for_load(world, 3.0, 10_000.0, seed=1)
        with ShardedFederation(
            world.specs,
            world.placement,
            world.classes,
            world.cost_model,
            config=FederationConfig(seed=1, drain_ms=0.0),
            shards=2,
            mode="inline",
        ) as federation:
            result = federation.run(trace, "qa-nt")
        assert result.metrics.dropped > 0
        with pytest.raises(ValueError, match="recorded no wait"):
            result.metrics.censored_mean_response_ms()
