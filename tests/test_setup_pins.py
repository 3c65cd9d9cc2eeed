"""Pins on the set-up layer: worlds, capacities and traces, bit for bit.

Every golden and benchmark outcome is built on these values, so a set-up
edit that moves one bit fails here first, naming set-up rather than a
golden three layers down.  Capacities compare with ``==``, not approx.

The capacities, and the sinusoid traces scaled by them, hold the float
HiGHS returns, which is within a few ulps of the exact optimum but not
always its correct rounding (``tests/test_capacity.py``'s exact oracle
holds it to 1e-12).  A SciPy upgrade that moves them needs a
re-record; it is not a regression.
"""

import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.scaling import quantise_trace
from repro.experiments.setups import (
    sinusoid_trace_for_load,
    two_query_world,
    zipf_world,
)
from repro.workload import (
    FixedArrivals,
    UniformArrivals,
    WorkloadEvent,
    ZipfArrivals,
    build_trace,
    zipf_trace,
)
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


@pytest.mark.parametrize(
    "interarrival_ms, seed, last_ms, digest",
    [
        (
            10.0,
            20,
            990.4788998023877,
            "3565a168c94e0f21ef5a45b4bb08b9ee8bc809e13bd7c6847b3751b37cee3bf1",
        ),
        (
            100.0,
            21,
            9892.199498185277,
            "be993c9e8ea1fda129ae4804b2c4d6bd0e32dcfc837dfd1c552f22bead48a06f",
        ),
    ],
)
def test_fig6_paper_trace(interarrival_ms, seed, last_ms, digest):
    """The paper-scale Fig. 6 traces of ``fig6_cell(..., seed=0)``'s first
    two points: 10,000 queries over 100 classes and 100 origins."""
    events = zipf_trace(
        100,
        interarrival_ms,
        300_000.0,
        list(range(100)),
        max_queries=10_000,
        seed=seed,
    )
    assert len(events) == 10_000
    assert events[-1].time_ms == last_ms
    assert _trace_digest(events) == digest


@pytest.mark.parametrize(
    "interarrival_ms, seed, last_ms, digest",
    [
        (
            5_000.0,
            23,
            466097.0014285614,
            "958f3e228a9b492c860e8f28b1b5096a5729bcbda81779ff9f489383531338f7",
        ),
        (
            10_000.0,
            24,
            722077.905935331,
            "1efba0e341f402a296e003c813c53597ac72bb2dd881fabf0d6dbe3930334c7b",
        ),
        (
            17_000.0,
            25,
            893367.0258545417,
            "b2779f602db20d362d1f786d3b34a2f23a14e45a25642cc16316d55f911656d3",
        ),
        (
            20_000.0,
            26,
            968042.171051002,
            "6cdf570540b50e6d7f17ec8aaded861f90d29fee3b6b863a9dd9ffee73e30928",
        ),
    ],
)
def test_fig6_uncut_paper_trace(interarrival_ms, seed, last_ms, digest):
    """The paper-scale Fig. 6 traces of ``fig6_cell(..., seed=0)``'s last
    four points, which no horizon cuts: all 10,000 queries, the first
    3,028-6,535 of them the 300 s traces' events."""
    events = zipf_trace(
        100,
        interarrival_ms,
        math.inf,
        list(range(100)),
        max_queries=10_000,
        seed=seed,
    )
    assert len(events) == 10_000
    assert events[-1].time_ms == last_ms
    assert _trace_digest(events) == digest


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


def _sorted_then_sliced(processes, horizon_ms, origin_nodes, seed, max_queries):
    """Reference builder: draw every class's whole stream, sort the lot by
    (time, class), then keep the first ``max_queries``."""
    origins = list(origin_nodes)
    rng = random.Random(seed)
    events = []
    for class_index in sorted(processes):
        class_rng = random.Random(rng.randrange(2**62))
        for time_ms in processes[class_index].times(horizon_ms, class_rng):
            origin = class_rng.choice(origins)
            events.append(WorkloadEvent(time_ms, class_index, origin))
    events.sort(key=lambda e: (e.time_ms, e.class_index))
    return events if max_queries is None else events[:max_queries]


# Duplicate fixed times tie across classes and within one class.
_processes = st.one_of(
    st.floats(min_value=5.0, max_value=80.0).map(UniformArrivals),
    st.floats(min_value=5.0, max_value=80.0).map(
        lambda mean: ZipfArrivals(mean, support=50)
    ),
    st.lists(st.integers(0, 20).map(float), max_size=30).map(FixedArrivals),
)


@settings(max_examples=60, deadline=None)
@given(
    processes=st.dictionaries(st.integers(0, 6), _processes, min_size=1, max_size=4),
    seed=st.integers(0, 2**32),
    max_queries=st.none() | st.integers(0, 200),
)
def test_build_trace_is_sort_then_slice(processes, seed, max_queries):
    args = (processes, 500.0, range(7), seed)
    assert build_trace(*args, max_queries=max_queries) == _sorted_then_sliced(
        *args, max_queries
    )
