"""Unit tests for repro.sim.engine (the discrete-event kernel)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(30.0, lambda: fired.append("c"))
        sim.schedule(10.0, lambda: fired.append("a"))
        sim.schedule(20.0, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_fifo_tie_breaking(self):
        sim = Simulator()
        fired = []
        for name in "abc":
            sim.schedule(5.0, lambda n=name: fired.append(n))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        times = []
        sim.schedule(12.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [12.5]
        assert sim.now == 12.5

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_before_now_rejected(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(5.0, lambda: None)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected_by_name(self, bad):
        # NaN passes any `time < now` test; fired, it set the clock to NaN.
        sim = Simulator()
        with pytest.raises(ValueError, match="finite"):
            sim.schedule_at(bad, lambda: None)
        with pytest.raises(ValueError, match="finite"):
            sim.schedule_stream(
                [(1.0, (lambda: None), ()), (bad, (lambda: None), ())]
            )
        assert sim.pending_events == 0
        sim.run()
        assert sim.now == 0.0

    def test_nested_scheduling(self):
        sim = Simulator()
        fired = []

        def outer():
            fired.append(("outer", sim.now))
            sim.schedule(5.0, lambda: fired.append(("inner", sim.now)))

        sim.schedule(10.0, outer)
        sim.run()
        assert fired == [("outer", 10.0), ("inner", 15.0)]


class TestBoundedRuns:
    def test_run_until_is_inclusive(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, lambda: fired.append("at"))
        sim.schedule(10.1, lambda: fired.append("after"))
        sim.run(until_ms=10.0)
        assert fired == ["at"]
        assert sim.now == 10.0

    def test_run_until_advances_clock_without_events(self):
        sim = Simulator()
        sim.run(until_ms=50.0)
        assert sim.now == 50.0

    def test_remaining_events_fire_on_next_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, lambda: fired.append(1))
        sim.run(until_ms=5.0)
        assert fired == []
        sim.run()
        assert fired == [1]

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(3):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 3

    def test_pending_events_decrements_on_fire(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending_events == 2
        sim.run(until_ms=1.0)
        assert sim.pending_events == 1
        sim.run()
        assert sim.pending_events == 0


class TestRecurrence:
    def test_every_fires_periodically(self):
        sim = Simulator()
        times = []
        sim.every(10.0, lambda: times.append(sim.now), start_ms=10.0, until_ms=45.0)
        sim.run()
        assert times == [10.0, 20.0, 30.0, 40.0]

    def test_every_ends_when_the_callback_returns_true(self):
        sim = Simulator()
        times = []

        def tick():
            times.append(sim.now)
            return sim.now >= 30.0

        sim.every(10.0, tick, start_ms=10.0, until_ms=100.0)
        sim.run()
        assert times == [10.0, 20.0, 30.0]
        assert sim.pending_events == 0

    def test_every_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            Simulator().every(0.0, lambda: None)

    def test_every_default_start_is_now(self):
        sim = Simulator()
        times = []
        sim.every(5.0, lambda: times.append(sim.now), until_ms=12.0)
        sim.run()
        assert times == [0.0, 5.0, 10.0]

    def test_every_start_past_its_bound_never_fires(self):
        # Regression: the first firing skipped the inclusive bound.
        sim = Simulator()
        times = []
        sim.every(10.0, lambda: times.append(sim.now), start_ms=50.0, until_ms=20.0)
        sim.run()
        assert times == []
        assert sim.pending_events == 0


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        min_size=1,
        max_size=40,
    ),
    st.lists(
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        max_size=10,
    ),
)
def test_schedule_stream_matches_sequential_schedule_at(
    stream_times, other_times
):
    # A stream reserves its whole seq range at registration, so firing
    # order (including FIFO ties against individually scheduled events
    # registered before and after it) must be indistinguishable from
    # having called schedule_at once per entry.
    stream_times = sorted(stream_times)
    half = len(other_times) // 2

    def run(use_stream):
        sim = Simulator()
        fired = []
        for j, t in enumerate(other_times[:half]):
            sim.schedule_at(t, fired.append, ("pre", j))
        if use_stream:
            sim.schedule_stream(
                [
                    (t, fired.append, (("stream", i),))
                    for i, t in enumerate(stream_times)
                ]
            )
            # Only the stream's head is heap-resident.
            assert sim.heap_size == half + 1
        else:
            for i, t in enumerate(stream_times):
                sim.schedule_at(t, fired.append, ("stream", i))
        for j, t in enumerate(other_times[half:]):
            sim.schedule_at(t, fired.append, ("post", j))
        assert sim.pending_events == len(stream_times) + len(other_times)
        sim.run()
        assert sim.pending_events == 0
        assert sim.heap_size == 0
        return fired

    assert run(True) == run(False)


def test_schedule_stream_rejects_unsorted_and_past_entries():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule_stream(
            [(5.0, (lambda: None), ()), (4.0, (lambda: None), ())]
        )
    sim.schedule_at(10.0, lambda: None)
    sim.run()
    assert sim.now == 10.0
    with pytest.raises(ValueError):
        sim.schedule_stream([(5.0, (lambda: None), ())])
