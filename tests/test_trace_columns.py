"""The columnar trace: the builder against a lazy-merge oracle, the
``Trace`` sequence, both engines on columns and on ``list(trace)``, the
chunked outcome digest, and the set-up scalars that must not depend on
the Python version's builtin ``sum``.
"""

import builtins
import hashlib
import heapq
import math
import operator
import random
from functools import reduce
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocation import GreedyAllocator, MarkovAllocator, QantAllocator
from repro.allocation.markov import _node_utilisation
from repro.experiments.scaling import quantise_trace
from repro.experiments.setups import two_query_world, zipf_world
from repro.query import Query
from repro.sim import FederationConfig, ShardedFederation, build_federation
from repro.sim import metrics as metrics_module
from repro.workload import (
    FixedArrivals,
    PoissonArrivals,
    SinusoidArrivals,
    Trace,
    TruncatedZipf,
    UniformArrivals,
    WorkloadEvent,
    ZipfArrivals,
    build_trace,
    trace_columns,
    zipf_trace,
)


def _lazy_merge(processes, horizon_ms, origin_nodes, seed, max_queries):
    """Reference builder: one lazy stream per class, each time followed by
    its origin from the class's rng, merged by ``heapq.merge`` and cut by
    ``islice``, so only the kept events (and one look-ahead per class)
    are drawn and an unbounded horizon works."""
    origins = list(origin_nodes)
    rng = random.Random(seed)

    def stream(class_index, class_rng):
        for time_ms in processes[class_index].times(horizon_ms, class_rng):
            yield time_ms, class_index, class_rng.choice(origins)

    streams = [
        stream(class_index, random.Random(rng.randrange(2**62)))
        for class_index in sorted(processes)
    ]
    return [
        WorkloadEvent(*row) for row in islice(heapq.merge(*streams), max_queries)
    ]


_processes = st.one_of(
    st.floats(min_value=5.0, max_value=80.0).map(UniformArrivals),
    st.floats(min_value=5.0, max_value=80.0).map(
        lambda mean: ZipfArrivals(mean, support=50)
    ),
    st.floats(min_value=0.01, max_value=0.4).map(PoissonArrivals),
    st.builds(
        SinusoidArrivals,
        frequency_hz=st.floats(min_value=0.5, max_value=20.0),
        peak_rate_per_ms=st.floats(min_value=0.01, max_value=0.4),
        phase_deg=st.floats(min_value=0.0, max_value=360.0),
    ),
    # Integer times tie across classes and within one class.
    st.lists(st.integers(0, 20).map(float), max_size=30).map(FixedArrivals),
)


@settings(max_examples=80, deadline=None)
@given(
    processes=st.dictionaries(st.integers(0, 6), _processes, min_size=1, max_size=4),
    seed=st.integers(0, 2**32),
    horizon_ms=st.sampled_from([500.0, math.inf]),
    max_queries=st.none() | st.integers(0, 300),
)
def test_build_trace_is_the_lazy_merge(processes, seed, horizon_ms, max_queries):
    if max_queries is None and math.isinf(horizon_ms):
        max_queries = 150  # an unbounded stream needs a cut
    args = (processes, horizon_ms, range(7), seed, max_queries)
    trace = build_trace(*args[:4], max_queries=max_queries)
    assert isinstance(trace, Trace)
    assert trace == _lazy_merge(*args)


@pytest.mark.parametrize("max_queries", range(0, 20))
@pytest.mark.parametrize("horizon_ms", [2.5, 10.0, math.inf])
def test_ties_at_the_cut(max_queries, horizon_ms):
    """Three classes share every time; cuts fall inside each tie group,
    which orders by class, each class's own arrivals in draw order."""
    times = [0.0, 1.0, 1.0, 2.0, 2.0, 2.0]
    processes = {k: FixedArrivals(times) for k in (4, 1, 2)}
    args = (processes, horizon_ms, range(3), 5, max_queries)
    assert build_trace(*args[:4], max_queries=max_queries) == _lazy_merge(*args)


@pytest.mark.parametrize("horizon_ms", [100.0, math.inf])
def test_negative_max_queries_is_refused(horizon_ms):
    with pytest.raises(ValueError, match="max_queries"):
        build_trace({0: PoissonArrivals(0.1)}, horizon_ms, [0], max_queries=-1)


def test_no_process_and_no_query_make_empty_traces():
    assert len(build_trace({}, 100.0, [0])) == 0
    assert len(build_trace({}, math.inf, [0], max_queries=5)) == 0
    assert len(build_trace({0: PoissonArrivals(0.1)}, math.inf, [0], max_queries=0)) == 0


def test_zipf_times_are_cumulative_gap_draws():
    arrivals = ZipfArrivals(40.0, support=300, max_interarrival_ms=2_000.0)
    times = list(arrivals.times(20_000.0, random.Random(3)))
    rng, clock, expected = random.Random(3), 0.0, []
    while True:
        clock += arrivals.gap_ms(rng)
        if clock >= 20_000.0:
            break
        expected.append(clock)
    assert times == expected


class TestTrace:
    @pytest.fixture
    def trace(self):
        return zipf_trace(5, 10.0, math.inf, [3, 7, 9], max_queries=40, seed=1)

    def test_columns_are_typed_and_read_only(self, trace):
        times, classes, origins = trace_columns(trace)
        assert (times.dtype, classes.dtype, origins.dtype) == (
            np.float64,
            np.int64,
            np.int64,
        )
        with pytest.raises(ValueError):
            times[0] = 1.0
        assert set(origins.tolist()) <= {3, 7, 9}

    def test_events_carry_python_numbers(self, trace):
        event = trace[-1]
        assert type(event.time_ms) is float
        assert type(event.class_index) is int and type(event.origin_node) is int
        assert list(trace)[-1] == event == trace[len(trace) - 1]
        with pytest.raises(IndexError):
            trace[len(trace)]

    def test_a_slice_is_a_trace(self, trace):
        head = trace[:10]
        assert isinstance(head, Trace) and len(head) == 10
        assert head == list(trace)[:10]
        assert trace != list(trace)[:10]
        assert trace == tuple(trace)
        assert (trace == "not a trace") is False

    def test_plain_columns_keep_their_types(self):
        events = [WorkloadEvent(1.0, 0, 1.5), WorkloadEvent(2.0, 1, 2)]
        times, classes, origins = trace_columns(events)
        assert times.tolist() == [1.0, 2.0] and classes.dtype.kind == "i"
        assert origins.dtype.kind == "f"

    def test_mismatched_columns_are_refused(self):
        with pytest.raises(ValueError, match="1-D columns"):
            Trace([1.0, 2.0], [0], [0, 0])

    def test_non_integer_columns_are_refused_not_truncated(self):
        with pytest.raises(ValueError, match="origin_node column has dtype float64"):
            Trace([0.0], [0], [1.5])
        with pytest.raises(ValueError, match="class_index column"):
            Trace([0.0], np.array([0.0]), [1])
        with pytest.raises(ValueError, match="origin_node column"):
            quantise_trace([WorkloadEvent(1.0, 0, 1.5)], 1.0)
        assert Trace([0.0], [True], np.array([3], dtype=np.int32))[0] == WorkloadEvent(
            0.0, 1, 3
        )


@pytest.fixture(scope="module")
def small_zipf():
    world = zipf_world(num_nodes=50, num_classes=20, seed=0)
    trace = zipf_trace(
        20, 120.0, 60_000.0, list(world.placement.node_ids), max_queries=400, seed=10
    )
    return world, trace


@pytest.mark.parametrize("allocator", [GreedyAllocator, QantAllocator])
def test_event_engine_runs_columns_as_the_event_list(small_zipf, allocator):
    world, trace = small_zipf
    digests = []
    for given_trace in (trace, list(trace)):
        federation = build_federation(
            world.specs,
            world.placement,
            world.classes,
            world.cost_model,
            allocator(),
            FederationConfig(seed=2),
        )
        digests.append(federation.run(given_trace).outcome_digest())
    assert digests[0] == digests[1]


@pytest.mark.parametrize("mechanism", ["greedy", "qa-nt"])
def test_sharded_engine_runs_columns_as_the_event_list(small_zipf, mechanism):
    world, trace = small_zipf
    with ShardedFederation(
        world.specs,
        world.placement,
        world.classes,
        world.cost_model,
        config=FederationConfig(seed=2),
        shards=2,
        mode="inline",
    ) as federation:
        from_columns = federation.run(trace, mechanism).outcome_digest()
        from_events = federation.run(list(trace), mechanism).outcome_digest()
    assert from_columns == from_events


def test_outcome_digest_hashes_the_whole_table_in_chunks(small_zipf, monkeypatch):
    world, trace = small_zipf
    federation = build_federation(
        world.specs,
        world.placement,
        world.classes,
        world.cost_model,
        GreedyAllocator(),
        FederationConfig(seed=2),
    )
    metrics = federation.run(trace)
    whole = "".join(
        metrics_module._OUTCOME_ROW % tuple(row) for row in metrics.outcomes
    )
    expected = hashlib.sha256(whole.encode()).hexdigest()
    assert metrics.completed > 7
    assert metrics.outcome_digest() == expected
    monkeypatch.setattr(metrics_module, "_DIGEST_ROWS", 7)
    assert metrics.outcome_digest() == expected


# -- set-up scalars, the same on every Python version ---------------------------

_builtin_sum = builtins.sum


def _compensated_sum(iterable, start=0):
    """Builtin ``sum`` as Python 3.12 computes it over floats (Neumaier's
    compensated summation); integers only are summed as before."""
    items = list(iterable)
    if not any(isinstance(x, float) for x in items):
        return _builtin_sum(items, start)
    total, compensation = float(start), 0.0
    for x in map(float, items):
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    return total + compensation if compensation else total


def _setup_scalars():
    zipf = TruncatedZipf(1.0, 3000)
    return (
        zipf.mean,
        zipf._cdf[0],
        ZipfArrivals(40.0)._scale,
        zipf_world(300, num_classes=120, seed=0).cost_model._scale,
    )


# The values of Python <= 3.11's builtin ``sum``: every pin of
# tests/test_setup_pins.py and every golden was recorded on them.
_SCALARS = (
    349.49760168446267,  # TruncatedZipf(1.0, 3000).mean
    1.0 / 8.583749889959169,  # first CDF entry: 1 / the weights' total
    0.11444999853278892,  # ZipfArrivals(40.0)._scale
    0.33040711212002943,  # the Zipf world's cost-model calibration
)


def test_setup_scalars_are_pinned():
    assert _setup_scalars() == _SCALARS


def test_setup_scalars_do_not_use_builtin_sum(monkeypatch):
    weights = [1.0 / x for x in range(1, 3001)]
    # The emulation reproduces what Python 3.12's ``sum`` returns.
    assert _compensated_sum(weights) == 8.583749889959186
    assert reduce(operator.add, weights, 0.0) == 8.583749889959169
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    assert _setup_scalars() == _SCALARS


def _markov_plan_and_choices():
    """The Markov allocator's cost rows and routing plan on the 30-node
    two-query world, 200 routing choices from the plan, and the bound
    allocator."""
    world = two_query_world(num_nodes=30, seed=0)
    allocator = MarkovAllocator([0.002, 0.001])
    build_federation(
        world.specs, world.placement, world.classes, world.cost_model,
        allocator, FederationConfig(seed=2),
    )
    nodes = allocator.context.nodes
    costs = [list(nodes[nid].class_costs_ms) for nid in sorted(nodes)]
    choices = [
        allocator.assign(Query(qid, qid % 2, 0, 0.0)).node_id
        for qid in range(200)
    ]
    return costs, allocator._plan, choices, allocator


def test_markov_sums_do_not_use_builtin_sum(monkeypatch):
    """The Markov allocator's three float sums run left to right, so
    Python 3.12's compensated ``sum`` cannot move its plan or choices;
    each sum is checked on inputs where the two programs differ."""
    costs, plan, choices, _ = _markov_plan_and_choices()
    # The world's class-0 inverse-cost weights: the seed plan's total.
    weights = [0.0 if math.isinf(c) else 1.0 / c for c, _ in costs]
    assert _compensated_sum(weights) != reduce(operator.add, weights, 0.0)
    sevenths = [0.7] * 30
    left = reduce(operator.add, sevenths, 0.0)
    last_draw = 1.0 - 2.0**-53
    assert last_draw * _compensated_sum(sevenths) > left
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    _, plan_again, choices_again, allocator = _markov_plan_and_choices()
    assert (plan_again, choices_again) == (plan, choices)
    assert _node_utilisation(0, [sevenths], [1.0] * 30, [[1.0] * 30]) == left
    # 30 candidates of weight 0.7 and the largest draw: left to right the
    # draw lands on the last candidate; over the compensated total it
    # would pass them all and fall back to the first.
    candidates = sorted(allocator.context.available_candidates(0))
    assert len(candidates) == 30
    allocator._plan = [[0.7, 0.7] for _ in allocator._node_order]
    monkeypatch.setattr(allocator.context.rng, "random", lambda: last_draw)
    assert allocator.assign(Query(0, 0, 0, 0.0)).node_id == candidates[-1]
