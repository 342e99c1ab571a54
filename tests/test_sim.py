"""Tests for the discrete-event simulation kernel."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SchedulingError, SimulationError
from repro.sim.clock import Clock, ns_to_seconds, seconds_to_ns
from repro.sim.engine import Simulator
from repro.sim.events import EventQueue, describe_event, validate_schedule_time
from repro.sim.process import Process
from repro.sim.random_source import RandomSource
from repro.sim.timers import PeriodicTimer, Timer
from repro.sim.trace import TraceRecorder


# ---------------------------------------------------------------------------
# Clock
# ---------------------------------------------------------------------------


class TestClock:
    def test_starts_at_zero(self):
        clock = Clock()
        assert clock.now == 0.0
        assert clock.now_ns == 0

    def test_advance(self):
        clock = Clock()
        clock.advance_to_ns(5_000_000_000)
        assert clock.now == pytest.approx(5.0)

    def test_cannot_run_backwards(self):
        clock = Clock()
        clock.advance_to_ns(100)
        with pytest.raises(ValueError):
            clock.advance_to_ns(50)

    def test_reset(self):
        clock = Clock()
        clock.advance_to_ns(100)
        clock.reset()
        assert clock.now_ns == 0

    @given(st.floats(min_value=0, max_value=1e6, allow_nan=False))
    def test_conversion_roundtrip_close(self, seconds):
        assert ns_to_seconds(seconds_to_ns(seconds)) == pytest.approx(seconds, abs=1e-9)


# ---------------------------------------------------------------------------
# Event queue
# ---------------------------------------------------------------------------


class TestEventQueue:
    """The one event queue: every engine (single, shard, control ring) runs it."""

    def _queue(self):
        return EventQueue(itertools.count())

    def test_pop_in_time_order(self):
        queue = self._queue()
        fired = []
        queue.push(300, lambda: fired.append("c"))
        queue.push(100, lambda: fired.append("a1"))
        queue.push(200, lambda: fired.append("b"))
        queue.push(100, lambda: fired.append("a2"))
        while True:
            entry = queue.pop()
            if entry is None:
                break
            entry[1]()
        assert fired == ["a1", "a2", "b", "c"]

    def test_ties_preserve_scheduling_order(self):
        queue = self._queue()
        order = []
        sequences = [
            queue.push(100, lambda i=index: order.append(i)).sequence
            for index in range(5)
        ]
        popped = []
        while queue:
            entry = queue.pop()
            popped.append(entry[0])
            entry[1]()
        assert order == [0, 1, 2, 3, 4]
        assert popped == sequences

    def test_cancelled_events_are_skipped(self):
        queue = self._queue()
        event = queue.push(10, lambda: None, label="victim")
        keep = queue.push(20, lambda: None)
        late = queue.push(20, lambda: None)
        event.cancel()
        late.cancel()
        assert len(queue) == 1
        assert queue.pop()[2] is keep
        # The cancelled same-time corpse now heads the bucket and is
        # discarded lazily, like the one ahead of it.
        assert queue.pop() is None
        assert queue.cancelled_discarded == 2

    def test_peek_skips_cancelled(self):
        queue = self._queue()
        first = queue.push(10, lambda: None)
        queue.push(20, lambda: None)
        first.cancel()
        assert queue.top_key()[0] == 20

    def test_validate_schedule_time(self):
        with pytest.raises(SchedulingError):
            validate_schedule_time(now_ns=100, when_ns=50)

    def test_describe_event(self):
        queue = self._queue()
        event = queue.push(10, lambda: None, label="x")
        description = describe_event(event)
        assert description["label"] == "x"
        assert description["time_ns"] == 10

    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_events_always_pop_sorted(self, times):
        queue = self._queue()
        for when in times:
            queue.push(when, lambda: None)
        popped = []
        while queue:
            popped.append(queue.pop()[2].time_ns)
        assert popped == sorted(times)


# ---------------------------------------------------------------------------
# Simulator
# ---------------------------------------------------------------------------


class TestSimulator:
    def test_schedule_and_run(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.schedule(2.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [pytest.approx(1.0), pytest.approx(2.0)]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SchedulingError):
            sim.schedule(-1.0, lambda: None)

    def test_run_until_stops_at_boundary(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(5.0, lambda: fired.append("b"))
        sim.run_until(2.0)
        assert fired == ["a"]
        assert sim.now == pytest.approx(2.0)
        assert sim.pending_events == 1

    def test_run_until_advances_clock_when_idle(self, sim):
        sim.run_until(3.0)
        assert sim.now == pytest.approx(3.0)

    def test_run_until_cannot_go_backwards(self, sim):
        sim.run_until(3.0)
        with pytest.raises(SimulationError):
            sim.run_until(1.0)

    def test_call_soon_runs_at_current_time(self, sim):
        times = []
        sim.schedule(1.0, lambda: sim.call_soon(lambda: times.append(sim.now)))
        sim.run()
        assert times == [pytest.approx(1.0)]

    def test_events_scheduled_during_run_are_executed(self, sim):
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 5:
                sim.schedule(0.5, lambda: chain(depth + 1))

        sim.schedule(0.0, lambda: chain(0))
        sim.run()
        assert fired == [0, 1, 2, 3, 4, 5]

    def test_run_for(self, sim):
        sim.run_until(1.0)
        sim.run_for(2.0)
        assert sim.now == pytest.approx(3.0)

    def test_max_events(self, sim):
        for _ in range(10):
            sim.schedule(1.0, lambda: None)
        dispatched = sim.run(max_events=4)
        assert dispatched == 4
        assert sim.pending_events == 6

    def test_max_events_resumes_mid_bucket_in_order(self, sim):
        order = []
        for index in range(6):
            sim.schedule_at_ns(100, lambda i=index: order.append(i))
        assert sim.run(max_events=2) == 2
        assert sim.step() is True
        assert sim.run() == 3
        assert order == [0, 1, 2, 3, 4, 5]
        assert sim.step() is False

    def test_schedule_fire_interleaves_with_cancellable_events(self, sim):
        order = []
        sim.schedule_at(1.0, lambda: order.append("a"))
        assert sim.schedule_fire(1.0, lambda: order.append("b"), label="x") is None
        sim.schedule_at(1.0, lambda: order.append("c"))
        sim.schedule_fire(0.5, lambda: order.append("early"))
        assert sim.pending_events == 4
        sim.run()
        assert order == ["early", "a", "b", "c"]
        with pytest.raises(SchedulingError):
            sim.schedule_fire(0.5, lambda: None)

    def test_raising_callback_leaves_the_queue_consistent(self, sim):
        fired = []

        def boom():
            raise RuntimeError("boom")

        sim.schedule_at(1.0, lambda: fired.append("a"))
        sim.schedule_at(1.0, boom)
        sim.schedule_at(1.0, lambda: fired.append("b"))
        sim.schedule_at(2.0, lambda: fired.append("c"))
        with pytest.raises(RuntimeError):
            sim.run()
        assert fired == ["a"]
        assert sim.pending_events == 2
        assert sim.events_dispatched == 2
        assert sim.run() == 2
        assert fired == ["a", "b", "c"]

    def test_dispatch_is_not_reentrant(self, sim):
        errors = []

        def nested():
            for drive in (sim.step, sim.run, lambda: sim.run_until(5.0)):
                try:
                    drive()
                except SimulationError as error:
                    errors.append(error)

        sim.schedule(1.0, nested)
        sim.schedule(2.0, lambda: None)
        assert sim.run() == 2
        assert len(errors) == 3

    def test_telemetry_samples_high_water_per_bucket(self, sim):
        telemetry = sim.enable_telemetry()

        def fan_out():
            for offset in range(1, 4):
                sim.schedule(offset, lambda: None)

        for _ in range(5):
            sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(1.0, fan_out)
        assert sim.run() == 9
        snapshot = telemetry.registry.snapshot()
        assert snapshot["counters"]["engine_events_dispatched"] == 9
        # Sampled on entry and after each bucket settles: six pending at
        # the start, three after the t=1s bucket fanned out.
        assert snapshot["gauges"]["engine_queue_high_water"] == 6

    def test_reset(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        sim.reset()
        assert sim.now == 0.0
        assert sim.pending_events == 0
        assert sim.events_dispatched == 0

    def test_determinism_same_seed(self):
        def run_once():
            simulator = Simulator(seed=99)
            values = []
            for _ in range(10):
                simulator.schedule(
                    simulator.random.uniform(0, 1), lambda: values.append(simulator.now)
                )
            simulator.run()
            return values

        assert run_once() == run_once()


# ---------------------------------------------------------------------------
# Timers
# ---------------------------------------------------------------------------


class TestTimers:
    def test_one_shot_timer_fires(self, sim):
        fired = []
        timer = Timer(sim, 2.0, lambda: fired.append(sim.now))
        timer.start()
        sim.run()
        assert fired == [pytest.approx(2.0)]
        assert timer.expiry_count == 1

    def test_timer_restart_cancels_previous(self, sim):
        fired = []
        timer = Timer(sim, 2.0, lambda: fired.append(sim.now))
        timer.start()
        sim.run_until(1.0)
        timer.start()  # restart at t=1, so it fires at t=3
        sim.run()
        assert fired == [pytest.approx(3.0)]

    def test_timer_stop(self, sim):
        fired = []
        timer = Timer(sim, 2.0, lambda: fired.append(True))
        timer.start()
        timer.stop()
        sim.run()
        assert fired == []
        assert not timer.running

    def test_timer_custom_duration(self, sim):
        fired = []
        timer = Timer(sim, 2.0, lambda: fired.append(sim.now))
        timer.start(duration=0.5)
        sim.run()
        assert fired == [pytest.approx(0.5)]

    def test_periodic_timer(self, sim):
        fired = []
        timer = PeriodicTimer(sim, 1.0, lambda: fired.append(sim.now))
        timer.start()
        sim.run_until(3.5)
        timer.stop()
        sim.run_until(10.0)
        assert fired == [pytest.approx(1.0), pytest.approx(2.0), pytest.approx(3.0)]
        assert timer.fire_count == 3

    def test_periodic_timer_fire_immediately(self, sim):
        fired = []
        timer = PeriodicTimer(sim, 1.0, lambda: fired.append(sim.now))
        timer.start(fire_immediately=True)
        sim.run_until(2.5)
        timer.stop()
        assert fired[0] == pytest.approx(0.0)
        assert len(fired) == 3


# ---------------------------------------------------------------------------
# Process
# ---------------------------------------------------------------------------


class TestProcess:
    def test_process_sleeps_between_steps(self, sim):
        steps = []

        def body():
            for _ in range(3):
                steps.append(sim.now)
                yield 1.0

        process = Process(sim, body())
        process.start()
        sim.run()
        assert steps == [pytest.approx(0.0), pytest.approx(1.0), pytest.approx(2.0)]
        assert process.finished

    def test_on_complete_callback(self, sim):
        done = []

        def body():
            yield 0.5

        process = Process(sim, body(), on_complete=lambda: done.append(sim.now))
        process.start()
        sim.run()
        assert done == [pytest.approx(0.5)]

    def test_start_is_idempotent(self, sim):
        count = []

        def body():
            count.append(1)
            yield 0.1

        process = Process(sim, body())
        process.start()
        process.start()
        sim.run()
        assert sum(count) == 1


# ---------------------------------------------------------------------------
# RandomSource
# ---------------------------------------------------------------------------


class TestRandomSource:
    def test_same_seed_same_sequence(self):
        a = RandomSource(5)
        b = RandomSource(5)
        assert [a.randint(0, 100) for _ in range(10)] == [
            b.randint(0, 100) for _ in range(10)
        ]

    def test_payload_length(self):
        source = RandomSource(1)
        assert len(source.payload(100)) == 100
        assert source.payload(0) == b""

    def test_jitter_bounds(self):
        source = RandomSource(2)
        for _ in range(100):
            value = source.jitter(10.0, fraction=0.1)
            assert 9.0 <= value <= 11.0

    def test_reseed(self):
        source = RandomSource(3)
        first = source.randint(0, 1000)
        source.reseed(3)
        assert source.randint(0, 1000) == first


# ---------------------------------------------------------------------------
# Trace
# ---------------------------------------------------------------------------


class TestTrace:
    def test_records_are_timestamped(self, sim):
        sim.schedule(1.5, lambda: sim.trace.record("unit", "tick"))
        sim.run()
        records = sim.trace.filter(category="tick")
        assert len(records) == 1
        assert records[0].time == pytest.approx(1.5)

    def test_filtering(self, sim):
        sim.trace.record("a", "x", value=1)
        sim.trace.record("b", "x", value=2)
        sim.trace.record("a", "y", value=3)
        assert sim.trace.count(category="x") == 2
        assert sim.trace.count(source="a") == 2
        assert len(sim.trace.filter(category="x", source="a")) == 1

    def test_disable_enable(self, sim):
        sim.trace.disable()
        sim.trace.record("a", "x")
        sim.trace.enable()
        sim.trace.record("a", "x")
        assert sim.trace.count(category="x") == 1

    def test_listener(self, sim):
        seen = []
        sim.trace.add_listener(lambda record: seen.append(record.category))
        sim.trace.record("a", "hello")
        assert seen == ["hello"]

    def test_last(self, sim):
        sim.trace.record("a", "x", value=1)
        sim.trace.record("a", "x", value=2)
        assert sim.trace.last(category="x").detail["value"] == 2
        assert sim.trace.last(category="missing") is None

    def test_time_window_filter(self, sim):
        recorder: TraceRecorder = sim.trace
        sim.schedule(1.0, lambda: recorder.record("a", "x"))
        sim.schedule(2.0, lambda: recorder.record("a", "x"))
        sim.schedule(3.0, lambda: recorder.record("a", "x"))
        sim.run()
        assert len(recorder.filter(category="x", since=1.5, until=2.5)) == 1
