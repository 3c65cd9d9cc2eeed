"""Tests for the deterministic fault-injection layer (repro.sim.faults).

Covers the spec/injector unit behaviour, the faulty network fan-out, the
allocators' degradation paths, the federation's backoff machinery, and
the three property suites the robustness PR pins:

(i)   an *inactive* fault spec leaves simulated traces byte-identical to
      a run with no fault layer at all;
(ii)  the same fault seed yields the same fault schedule everywhere —
      across injector instances and across serial vs ``--jobs N`` sweeps;
(iii) backoff delays are bounded by the cap and monotone in the attempt.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocation import (
    GreedyAllocator,
    QantAllocator,
    RandomAllocator,
    RoundRobinAllocator,
)
from repro.experiments.chaos import chaos_cell
from repro.experiments.runner import _json_safe, run_sweep
from repro.experiments.setups import two_query_world
from repro.experiments.spec import ScalePreset, ScenarioSpec
from repro.query.model import Query
from repro.sim import FederationConfig, build_federation
from repro.sim.faults import (
    FaultInjector,
    FaultSpec,
    PartitionWindow,
    derive_fault_seed,
    half_partition,
)
from repro.workload import PoissonArrivals, build_trace

from test_golden_trace import _outcome_digest


# ----------------------------------------------------------------- fixtures


def _small_world(num_nodes=10, seed=0):
    return two_query_world(num_nodes=num_nodes, seed=seed)


def _small_trace(world, horizon_ms=2_000.0, load_fraction=0.8, seed=1):
    capacity = world.capacity_qpms([2.0, 1.0])
    return build_trace(
        {
            0: PoissonArrivals(load_fraction * capacity * 2.0 / 3.0),
            1: PoissonArrivals(load_fraction * capacity / 3.0),
        },
        horizon_ms=horizon_ms,
        origin_nodes=world.placement.node_ids,
        seed=seed,
    )


def _run(world, trace, factory, faults=None, seed=2, drain_ms=20_000.0):
    federation = build_federation(
        world.specs,
        world.placement,
        world.classes,
        world.cost_model,
        factory(),
        FederationConfig(seed=seed, drain_ms=drain_ms, faults=faults),
    )
    metrics = federation.run(trace)
    return federation, metrics


# ------------------------------------------------------------ FaultSpec


class TestFaultSpec:
    def test_default_spec_is_inert(self):
        spec = FaultSpec()
        assert not spec.message_faults
        assert not spec.node_faults
        assert not spec.active

    def test_message_fault_triggers(self):
        assert FaultSpec(drop_probability=0.1).message_faults
        assert FaultSpec(spike_probability=0.1).message_faults
        window = PartitionWindow((0,), (1,), 0.0, 10.0)
        assert FaultSpec(partitions=(window,)).message_faults

    def test_node_fault_triggers(self):
        assert FaultSpec(crash_rate_per_min=1.0).node_faults
        assert FaultSpec(scripted_outages={0: ((0.0, 5.0),)}).node_faults
        assert not FaultSpec(crash_rate_per_min=1.0).message_faults

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"drop_probability": 1.5},
            {"drop_probability": -0.1},
            {"spike_probability": 2.0},
            {"spike_ms": -1.0},
            {"crash_rate_per_min": -1.0},
            {"mean_downtime_ms": 0.0},
            {"bid_timeout_ms": 0.0},
            {"backoff_base_ms": 0.0},
            {"backoff_factor": 0.5},
            {"backoff_base_ms": 500.0, "backoff_cap_ms": 100.0},
            {"scripted_outages": {0: ((5.0, 5.0),)}},
            {"scripted_outages": {0: ((-1.0, 5.0),)}},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultSpec(**kwargs)


class TestPartitionWindow:
    def test_severs_is_symmetric_and_windowed(self):
        window = PartitionWindow((0, 2), (1, 3), 100.0, 200.0)
        assert window.severs(0, 1, 100.0)
        assert window.severs(1, 0, 150.0)
        assert not window.severs(0, 1, 99.9)
        assert not window.severs(0, 1, 200.0)  # half-open interval
        assert not window.severs(0, 2, 150.0)  # same side
        assert not window.severs(0, 7, 150.0)  # 7 in neither group

    def test_validation(self):
        with pytest.raises(ValueError):
            PartitionWindow((0,), (0,), 0.0, 10.0)  # overlap
        with pytest.raises(ValueError):
            PartitionWindow((), (1,), 0.0, 10.0)  # empty group
        with pytest.raises(ValueError):
            PartitionWindow((0,), (1,), 10.0, 10.0)  # zero-length

    def test_half_partition_splits_even_odd(self):
        window = half_partition(range(6), 10.0, 20.0)
        assert window.group_a == (0, 2, 4)
        assert window.group_b == (1, 3, 5)


# --------------------------------------------------------- FaultInjector


class TestFaultInjector:
    def test_drop_extremes(self):
        always = FaultInjector(FaultSpec(drop_probability=1.0))
        never = FaultInjector(FaultSpec(spike_probability=0.5))
        assert all(always.drop_message() for __ in range(20))
        assert not any(never.drop_message() for __ in range(20))

    def test_streams_are_independent(self):
        """Enabling churn must not shift the message-decision stream."""
        base = FaultSpec(drop_probability=0.5, fault_seed=9)
        churny = FaultSpec(
            drop_probability=0.5, crash_rate_per_min=3.0, fault_seed=9
        )
        a, b = FaultInjector(base), FaultInjector(churny)
        b.churn_windows(range(10), 60_000.0)  # consume the churn stream
        assert [a.drop_message() for __ in range(100)] == [
            b.drop_message() for __ in range(100)
        ]

    def test_partition_ms_unions_overlaps(self):
        windows = (
            PartitionWindow((0,), (1,), 0.0, 100.0),
            PartitionWindow((0,), (1,), 50.0, 150.0),
            PartitionWindow((2,), (3,), 300.0, 400.0),
        )
        injector = FaultInjector(FaultSpec(partitions=windows))
        assert injector.partition_ms() == 250.0

    def test_reachable_filters_partitioned_peers(self):
        window = half_partition(range(4), 0.0, 100.0)
        injector = FaultInjector(FaultSpec(partitions=(window,)))
        assert injector.reachable(1, (0, 1, 2, 3), 50.0) == (1, 3)
        assert injector.reachable(1, (0, 1, 2, 3), 150.0) == (0, 1, 2, 3)

    def test_churn_windows_deterministic_and_cached(self):
        spec = FaultSpec(crash_rate_per_min=5.0, fault_seed=4)
        a, b = FaultInjector(spec), FaultInjector(spec)
        wa = a.churn_windows(range(8), 60_000.0)
        assert wa == b.churn_windows(range(8), 60_000.0)
        assert a.churn_windows(range(8), 60_000.0) is wa  # cached
        assert wa  # 5 crashes/min over a minute: some node crashed

    def test_install_node_faults_schedules_outages(self):
        world = _small_world(num_nodes=4)
        spec = FaultSpec(
            scripted_outages={1: ((100.0, 500.0),)},
            crash_rate_per_min=20.0,
            fault_seed=3,
        )
        federation = build_federation(
            world.specs,
            world.placement,
            world.classes,
            world.cost_model,
            RandomAllocator(),
            FederationConfig(faults=spec),
        )
        injector = federation.fault_injector
        injector.install_node_faults(federation.nodes, 60_000.0)
        assert federation.nodes[1].has_outages
        assert injector.crash_count > 0

    def test_derive_fault_seed_stable_and_distinct(self):
        assert derive_fault_seed(1, ("messages",)) == derive_fault_seed(
            1, ("messages",)
        )
        assert derive_fault_seed(1, ("messages",)) != derive_fault_seed(
            1, ("churn",)
        )
        assert derive_fault_seed(1, ("messages",)) != derive_fault_seed(
            2, ("messages",)
        )


# ------------------------------------------------------- faulty fan-out


class TestFaultyFanout:
    def _network(self, spec):
        world = _small_world(num_nodes=4)
        federation = build_federation(
            world.specs,
            world.placement,
            world.classes,
            world.cost_model,
            RandomAllocator(),
            FederationConfig(faults=spec),
        )
        return federation.network, federation.fault_injector

    def test_injectorless_fanout_falls_back_fault_free(self):
        # With no injector attached, fanout is the plain fault-free
        # exchange: everyone delivered, everyone replied, 2 legs per peer,
        # and the delay comes from the same latency stream round_trip_ms
        # draws from (checked against a twin network with the same seed).
        network, __ = self._network(None)
        twin, __ = self._network(None)
        expected = twin.round_trip_ms(2)
        result = network.fanout(0, (1, 2))
        assert result.delivered == (1, 2)
        assert result.replied == (1, 2)
        assert result.messages == 4
        assert result.delay_ms == expected
        assert network.messages_sent == twin.messages_sent

    def test_total_drop_is_total_silence(self):
        network, injector = self._network(FaultSpec(drop_probability=1.0))
        result = network.fanout(0, (1, 2, 3))
        assert result.delivered == () and result.replied == ()
        assert result.messages == 3  # requests only; lost requests get no reply
        assert result.delay_ms == injector.spec.bid_timeout_ms
        assert injector.lost_messages == 3
        assert injector.timeouts == 3

    def test_spikes_blow_the_timeout_but_deliver_requests(self):
        spec = FaultSpec(
            spike_probability=1.0, spike_ms=1_000.0, bid_timeout_ms=10.0
        )
        network, injector = self._network(spec)
        result = network.fanout(0, (1, 2))
        # Requests arrive (late), so server-side dynamics still fire; the
        # replies land far after the timeout, so the client hears nothing.
        assert result.delivered == (1, 2)
        assert result.replied == ()
        assert result.delay_ms == 10.0
        assert injector.timeouts == 2

    def test_clean_injector_reaches_everyone(self):
        # Partitions outside their window are no-ops; nothing else faulty.
        window = PartitionWindow((0,), (1,), 1e6, 2e6)
        network, injector = self._network(FaultSpec(partitions=(window,)))
        result = network.fanout(0, (1, 2, 3))
        assert result.delivered == (1, 2, 3)
        assert result.replied == (1, 2, 3)
        assert result.messages == 6
        assert 0 < result.delay_ms <= injector.spec.bid_timeout_ms

    def test_partition_severs_cross_group_requests(self):
        window = half_partition(range(4), 0.0, 1e6)
        network, injector = self._network(FaultSpec(partitions=(window,)))
        result = network.fanout(0, (1, 2, 3))
        assert result.delivered == (2,)  # only the even peer is reachable from 0
        assert result.replied == (2,)


# ----------------------------------------------- degradation and backoff


class TestGracefulDegradation:
    def test_qant_falls_back_to_stale_cache_on_silence(self):
        world = _small_world(num_nodes=4)
        federation = build_federation(
            world.specs,
            world.placement,
            world.classes,
            world.cost_model,
            QantAllocator(),
            FederationConfig(faults=FaultSpec(drop_probability=1.0)),
        )
        allocator = federation.allocator
        allocator._last_good[0] = (0, 2)
        decision = allocator.assign(
            Query(qid=0, class_index=0, origin_node=1, arrival_ms=0.0)
        )
        assert decision.node_id in (0, 2)
        assert federation.fault_injector.degraded_assignments == 1

    def test_qant_refuses_on_silence_without_cache(self):
        world = _small_world(num_nodes=4)
        federation = build_federation(
            world.specs,
            world.placement,
            world.classes,
            world.cost_model,
            QantAllocator(),
            FederationConfig(faults=FaultSpec(drop_probability=1.0)),
        )
        decision = federation.allocator.assign(
            Query(qid=0, class_index=0, origin_node=1, arrival_ms=0.0)
        )
        assert decision.node_id is None

    def test_federation_backoff_paces_resubmissions(self):
        world = _small_world(num_nodes=4)
        trace = _small_trace(world)
        __, metrics = _run(
            world,
            trace,
            QantAllocator,
            faults=FaultSpec(drop_probability=1.0),
            drain_ms=5_000.0,
        )
        # Total message loss: nothing completes, every query cycles
        # through the backoff machinery until the run ends.
        assert metrics.completed == 0
        assert metrics.dropped == len(trace)
        assert metrics.counters["fault_retries"] > 0
        assert metrics.counters["lost_messages"] > 0

    def test_faulted_runs_still_complete_work(self):
        world = _small_world(num_nodes=6)
        trace = _small_trace(world, horizon_ms=3_000.0)
        for factory in (QantAllocator, GreedyAllocator, RoundRobinAllocator):
            __, metrics = _run(
                world,
                trace,
                factory,
                faults=FaultSpec(drop_probability=0.2, fault_seed=5),
            )
            assert metrics.completed > 0
            assert metrics.counters["lost_messages"] > 0


# ------------------------------------------------------------ properties


class TestFaultProperties:
    """The three hypothesis suites the robustness PR pins."""

    _baseline_digest = None

    @classmethod
    def _clean_digest(cls):
        if cls._baseline_digest is None:
            world = _small_world(num_nodes=6)
            trace = _small_trace(world, horizon_ms=1_000.0)
            __, metrics = _run(world, trace, QantAllocator, faults=None)
            cls._baseline_digest = _outcome_digest(metrics.outcomes)
        return cls._baseline_digest

    @given(
        timeout=st.floats(min_value=1.0, max_value=50.0),
        base=st.floats(min_value=1.0, max_value=500.0),
        factor=st.floats(min_value=1.0, max_value=4.0),
        fault_seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=8, deadline=None)
    def test_inactive_spec_is_byte_identical(
        self, timeout, base, factor, fault_seed
    ):
        """(i) Faults disabled => traces identical to a no-fault-layer run,
        whatever the (inert) policy knobs and fault seed say."""
        spec = FaultSpec(
            bid_timeout_ms=timeout,
            backoff_base_ms=base,
            backoff_factor=factor,
            backoff_cap_ms=base + 2_000.0,
            fault_seed=fault_seed,
        )
        assert not spec.active
        world = _small_world(num_nodes=6)
        trace = _small_trace(world, horizon_ms=1_000.0)
        __, metrics = _run(world, trace, QantAllocator, faults=spec)
        assert _outcome_digest(metrics.outcomes) == self._clean_digest()

    @given(
        fault_seed=st.integers(min_value=0, max_value=2**63 - 1),
        drop=st.floats(min_value=0.0, max_value=1.0),
        churn=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_same_fault_seed_same_schedule(self, fault_seed, drop, churn):
        """(ii) The fault schedule is a pure function of the spec."""
        spec = FaultSpec(
            drop_probability=drop,
            crash_rate_per_min=churn,
            fault_seed=fault_seed,
        )
        a, b = FaultInjector(spec), FaultInjector(spec)
        assert [a.drop_message() for __ in range(64)] == [
            b.drop_message() for __ in range(64)
        ]
        assert [a.spike_penalty_ms() for __ in range(8)] == [
            b.spike_penalty_ms() for __ in range(8)
        ]
        assert a.churn_windows(range(6), 30_000.0) == b.churn_windows(
            range(6), 30_000.0
        )

    @given(
        base=st.floats(min_value=1.0, max_value=1_000.0),
        factor=st.floats(min_value=1.0, max_value=4.0),
        headroom=st.floats(min_value=0.0, max_value=5_000.0),
        attempts=st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=50, deadline=None)
    def test_backoff_bounded_and_monotone(
        self, base, factor, headroom, attempts
    ):
        """(iii) Backoff delays are capped and monotone in the attempt."""
        cap = base + headroom
        injector = FaultInjector(
            FaultSpec(
                backoff_base_ms=base,
                backoff_factor=factor,
                backoff_cap_ms=cap,
            )
        )
        delays = [injector.backoff_ms(i) for i in range(attempts + 1)]
        assert delays[0] == base
        assert all(base <= d <= cap for d in delays)
        assert all(x <= y for x, y in zip(delays, delays[1:]))
        with pytest.raises(ValueError):
            injector.backoff_ms(-1)


# -------------------------------------------------- sweep reproducibility


def _tiny_chaos_spec():
    """A throwaway (unregistered) fault-aware sweep for runner tests."""
    return ScenarioSpec(
        name="chaos-tiny",
        title="tiny chaos sweep (tests only)",
        cell=chaos_cell,
        axis="(drop, churn/min)",
        mechanisms=("qa-nt", "round-robin"),
        primary_metric="mean_response_ms",
        fault_aware=True,
        scales={
            "small": ScalePreset(
                points=((0.1, 3.0), (0.0, 0.0)),
                fixed={"num_nodes": 8, "horizon_ms": 1_500.0},
            ),
        },
    )


class TestFaultAwareSweeps:
    def test_serial_and_parallel_sweeps_are_byte_identical(self):
        """(ii, end to end) same fault seed => same artifact, any --jobs."""
        spec = _tiny_chaos_spec()
        serial = run_sweep(spec, scale="small", seeds=(0,), fault_seed=123)
        parallel = run_sweep(
            spec, scale="small", seeds=(0,), jobs=2, fault_seed=123
        )
        as_json = lambda r: json.dumps(  # noqa: E731
            _json_safe(r.to_dict()), indent=2, sort_keys=True
        )
        assert as_json(serial) == as_json(parallel)
        assert serial.fault_seed == 123

    def test_fault_seed_changes_fault_metrics_not_workload(self):
        spec = _tiny_chaos_spec()
        a = run_sweep(spec, scale="small", seeds=(0,), fault_seed=1)
        b = run_sweep(spec, scale="small", seeds=(0,), fault_seed=2)
        lost = lambda r: [  # noqa: E731
            c.metrics["lost_messages"] for c in r.cells
        ]
        assert lost(a) != lost(b)

    def test_fault_seed_rejected_for_fault_free_scenarios(self):
        from repro.experiments.spec import REGISTRY

        with pytest.raises(ValueError):
            run_sweep(REGISTRY.get("fig4"), scale="small", fault_seed=1)

    def test_fault_free_payload_has_no_fault_seed_key(self):
        from repro.experiments.spec import REGISTRY

        result = run_sweep(REGISTRY.get("failures"), scale="small", seeds=(0,))
        assert "fault_seed" not in result.to_dict()
