"""Pins on the set-up layer: worlds, capacities and traces, bit for bit.

Every golden and benchmark outcome is built on these values, so a set-up
edit that moves one bit fails here first, naming set-up rather than a
golden three layers down.  Capacities compare with ``==``, not approx.
"""

import hashlib

import pytest

from repro.experiments.scaling import quantise_trace
from repro.experiments.setups import (
    sinusoid_trace_for_load,
    two_query_world,
    zipf_world,
)
from repro.workload import build_trace, zipf_trace
from repro.workload.sinusoid import SinusoidArrivals


def _digest(parts):
    return hashlib.sha256("".join(parts).encode()).hexdigest()


def _trace_digest(events):
    return _digest(
        "%r,%d,%d;" % (e.time_ms, e.class_index, e.origin_node) for e in events
    )


@pytest.fixture(scope="module")
def zipf300():
    return zipf_world(300, num_classes=120, seed=0)


@pytest.mark.parametrize(
    "num_nodes, seed, capacity",
    [
        (10, 0, 0.013422164854814804),
        (10, 1, 0.011634668373844597),
        (30, 0, 0.03491268873919882),
        (30, 1, 0.03721842928041725),
        (100, 0, 0.11394265854278779),
        (100, 1, 0.11948245960798615),
        (1000, 0, 1.1897789305467643),
        (1000, 1, 1.1768887036519535),
    ],
)
def test_two_query_capacity(num_nodes, seed, capacity):
    world = two_query_world(num_nodes, seed=seed)
    assert world.capacity_qpms([2.0, 1.0]) == capacity


def test_zipf_capacity_small():
    world = zipf_world(50, num_classes=20, seed=0)
    assert world.capacity_qpms([1.0] * 20) == 0.0047426632426431576


def test_zipf_capacity_300(zipf300):
    assert zipf300.capacity_qpms([1.0] * 120) == 0.01418555395318216


def test_zipf_cost_matrix(zipf300):
    digest = _digest(",".join(map(repr, row)) + ";" for row in zipf300.cost_matrix())
    assert digest == "ce765c5fdba1c0cc5eddb8cf90e114b8f06d4941574cbf51cc2a8521856b87c7"


def test_zipf_trace():
    events = zipf_trace(
        120, 40.0, 9000.0, list(range(300)), max_queries=24000, seed=11
    )
    assert len(events) == 24000
    assert _trace_digest(events) == (
        "529db87f10f0c431c8e986c136e141464e9cd6c12cb9df7095e4fe0f83d89fb7"
    )


def test_quantised_sinusoid_trace():
    trace = sinusoid_trace_for_load(
        two_query_world(1000, seed=0),
        load_fraction=1.5,
        horizon_ms=5000.0,
        frequency_hz=0.05,
        seed=11,
    )
    events = quantise_trace(trace, 25.0)
    assert len(events) == 10745
    assert _trace_digest(events) == (
        "cd214dbe4f3397e2d2896eac476a4fdbcf5e7b3aa6fba09693098c187b954610"
    )


def test_build_trace_takes_an_iterator_of_origins():
    processes = {
        0: SinusoidArrivals(frequency_hz=0.5, peak_rate_per_ms=0.05),
        1: SinusoidArrivals(frequency_hz=0.5, peak_rate_per_ms=0.02),
    }
    from_list = build_trace(processes, 2000.0, list(range(50)), seed=3)
    from_iter = build_trace(processes, 2000.0, iter(range(50)), seed=3)
    assert len(from_list) > 50
    assert from_iter == from_list
