"""Tests for the pluggable trace-sink architecture and the O(1) event queue.

Covers the refactored instrumentation hot path: per-category gating, lazy
detail rendering, the sink implementations (list / ring buffer / counting /
null), live-counter windows, the event queue's live counter and discard
accounting, and the determinism guarantee (same seed, same trace) with sinks
swapped.
"""

from __future__ import annotations

import itertools
import os
import types

import pytest

from repro.ethernet.ethertype import EtherType
from repro.ethernet.frame import EthernetFrame
from repro.ethernet.mac import BROADCAST, MacAddress
from repro.lan.nic import NetworkInterface
from repro.lan.segment import Segment
from repro.measurement.ping import PingRunner
from repro.measurement.setups import build_bridged_pair, build_repeater_pair
from repro.scenario import run_scenario
from repro.sim.engine import Simulator
from repro.sim.events import EventQueue
from repro.sim.trace import (
    CounterWindow,
    CountingSink,
    ListSink,
    NullSink,
    RingBufferSink,
    TraceRecorder,
    drop_detail,
    forward_detail,
    frame_detail,
    interface_detail,
    sender_frame_detail,
    unclaimed_detail,
)


def run_short_ping(trace_sinks=None, seed=11):
    """A short end-to-end ping through the active bridge (no spanning tree)."""
    setup = build_bridged_pair(
        seed=seed, include_spanning_tree=False, trace_sinks=trace_sinks
    )
    runner = PingRunner(
        setup.network.sim,
        setup.left,
        setup.right.ip,
        payload_size=64,
        count=4,
        interval=0.05,
    )
    result = runner.run(start_time=setup.ready_time)
    return setup, result


# ---------------------------------------------------------------------------
# Gating
# ---------------------------------------------------------------------------


class TestCategoryGating:
    def test_disabled_category_suppresses_sinks_and_listeners(self, sim):
        seen = []
        sim.trace.add_listener(lambda record: seen.append(record.category))
        sim.trace.disable_category("noise")
        sim.trace.record("a", "noise")
        sim.trace.record("a", "signal")
        assert seen == ["signal"]
        assert sim.trace.count(category="noise") == 0
        assert sim.trace.count(category="signal") == 1
        assert len(sim.trace.filter(category="noise")) == 0

    def test_reenable_category(self, sim):
        sim.trace.disable_category("x")
        sim.trace.record("a", "x")
        sim.trace.enable_category("x")
        sim.trace.record("a", "x")
        assert sim.trace.count(category="x") == 1

    def test_wants_reflects_gating(self, sim):
        assert sim.trace.wants("anything")
        sim.trace.disable_category("gated")
        assert not sim.trace.wants("gated")
        assert sim.trace.wants("other")
        sim.trace.disable()
        assert not sim.trace.wants("other")
        sim.trace.enable()
        assert sim.trace.wants("other")
        assert "gated" in sim.trace.disabled_categories

    def test_disabled_category_suppresses_producers(self, sim):
        segment = Segment(sim, "lan")
        a = NetworkInterface(sim, "a", MacAddress.locally_administered(1))
        b = NetworkInterface(sim, "b", MacAddress.locally_administered(2))
        a.attach(segment)
        b.attach(segment)
        sim.trace.disable_category("nic.tx")
        frame = EthernetFrame(
            destination=b.mac, source=a.mac, ethertype=int(EtherType.IPV4), payload=b"hi"
        )
        a.send(frame)
        sim.run()
        assert sim.trace.count(category="nic.tx") == 0
        assert sim.trace.count(category="nic.rx") == 1


# ---------------------------------------------------------------------------
# Lazy detail
# ---------------------------------------------------------------------------


class TestLazyDetail:
    def test_callable_detail_renders_on_first_access_only(self, sim):
        calls = []

        def render():
            calls.append(1)
            return {"value": 7}

        record = sim.trace.emit("a", "lazy", render)
        assert not record.detail_is_rendered
        assert calls == []
        assert record.detail == {"value": 7}
        assert record.detail == {"value": 7}
        assert calls == [1]  # cached after first render
        assert record.detail_is_rendered

    def test_none_and_dict_details(self, sim):
        empty = sim.trace.emit("a", "bare")
        assert empty.detail == {}
        eager = sim.trace.emit("a", "eager", {"k": 1})
        assert eager.detail == {"k": 1}

    def test_hot_path_frames_are_not_rendered(self, sim):
        segment = Segment(sim, "lan")
        a = NetworkInterface(sim, "a", MacAddress.locally_administered(1))
        b = NetworkInterface(sim, "b", MacAddress.locally_administered(2))
        a.attach(segment)
        b.attach(segment)
        frame = EthernetFrame(
            destination=b.mac, source=a.mac, ethertype=int(EtherType.IPV4), payload=b"x"
        )
        a.send(frame)
        sim.run()
        tx = sim.trace.last(category="nic.tx")
        assert not tx.detail_is_rendered
        assert "->" in tx.detail["frame"]  # renders on demand
        assert tx.detail_is_rendered


    def test_tuple_detail_renders_on_first_access_only(self, sim):
        calls = []

        def render(left, right):
            calls.append((left, right))
            return {"sum": left + right}

        record = sim.trace.emit("a", "lazy", (render, 2, 5))
        assert not record.detail_is_rendered
        assert calls == []
        assert record.detail == {"sum": 7}
        assert record.detail == {"sum": 7}
        assert calls == [(2, 5)]  # cached after first render
        assert record.detail_is_rendered


# ---------------------------------------------------------------------------
# Frame-path details: data tuples, not closures
# ---------------------------------------------------------------------------

#: Per converted category: the renderer its producer names, and the dict the
#: producer's closure built before details became data tuples.
PRE_CHANGE_DETAILS = {
    "nic.tx": (frame_detail, lambda frame: {"frame": frame.describe()}),
    "nic.rx": (frame_detail, lambda frame: {"frame": frame.describe()}),
    "segment.enqueue": (
        sender_frame_detail,
        lambda sender, frame: {"sender": sender.name, "frame": frame.describe()},
    ),
    "segment.deliver": (
        sender_frame_detail,
        lambda sender, frame: {"sender": sender.name, "frame": frame.describe()},
    ),
    "segment.drop": (
        drop_detail,
        lambda sender, reason, frame: {
            "sender": sender.name,
            "reason": reason,
            "frame": frame.describe(),
        },
    ),
    "node.forward": (
        forward_detail,
        lambda interface, frame: {"interface": interface, "bytes": frame.frame_length},
    ),
    "unixnet.unclaimed": (
        unclaimed_detail,
        lambda interface, frame: {
            "interface": interface,
            "destination": str(frame.destination),
        },
    ),
    "repeater.forward": (interface_detail, lambda interface: {"interface": interface}),
}


def _segment_scene(_env):
    """Two NICs on one segment: one frame delivered, one dropped link-down."""
    sim = Simulator(seed=42)
    segment = Segment(sim, "lan")
    a = NetworkInterface(sim, "a", MacAddress.locally_administered(1))
    b = NetworkInterface(sim, "b", MacAddress.locally_administered(2))
    a.attach(segment)
    b.attach(segment)
    frame = EthernetFrame(
        destination=b.mac, source=a.mac, ethertype=int(EtherType.IPV4), payload=b"x"
    )
    a.send(frame)
    sim.run()
    segment.set_link(False)
    a.send(frame)
    sim.run()
    return sim.trace


def _ping_scene(build):
    def scene(_env):
        setup = build(seed=11)
        runner = PingRunner(
            setup.network.sim, setup.left, setup.right.ip,
            payload_size=64, count=2, interval=0.05,
        )
        runner.run(start_time=setup.ready_time)
        return setup.network.sim.trace

    return scene


def _unprogrammed_bridge_scene(env):
    """A broadcast reaches a bridge with no switchlet: nothing claims it."""
    frame = EthernetFrame(
        destination=BROADCAST, source=env["host1"].mac, ethertype=0x88B6, payload=b"x"
    )
    env["host1"].send_raw_frame(frame)
    env["sim"].run_until(1.0)
    return env["sim"].trace


FRAME_PATH_SCENES = {
    "nic.tx": _segment_scene,
    "nic.rx": _segment_scene,
    "segment.enqueue": _segment_scene,
    "segment.deliver": _segment_scene,
    "segment.drop": _segment_scene,
    "node.forward": _ping_scene(build_bridged_pair),
    "unixnet.unclaimed": _unprogrammed_bridge_scene,
    "repeater.forward": _ping_scene(build_repeater_pair),
}


class TestFramePathDetails:
    @pytest.mark.parametrize("category", sorted(PRE_CHANGE_DETAILS))
    def test_rendered_detail_equals_the_pre_change_dict(self, category, two_lan_bridge):
        trace = FRAME_PATH_SCENES[category](two_lan_bridge)
        records = trace.filter(category=category)
        assert records
        renderer, pre_change = PRE_CHANGE_DETAILS[category]
        for record in records:
            raw = record._detail
            assert type(raw) is tuple and raw[0] is renderer
            assert not record.detail_is_rendered
            expected = pre_change(*raw[1:])
            assert record.detail == expected
            assert list(record.detail) == list(expected)  # same key order
            assert record.detail_is_rendered

    def test_segment_scene_details_by_value(self):
        trace = _segment_scene(None)
        frame = trace.last(category="nic.tx")._detail[1]
        described = frame.describe()
        assert "->" in described
        assert trace.last(category="nic.rx").detail == {"frame": described}
        for category in ("segment.enqueue", "segment.deliver"):
            assert trace.last(category=category).detail == {
                "sender": "a",
                "frame": described,
            }
        assert trace.last(category="segment.drop").detail == {
            "sender": "a",
            "reason": "link-down",
            "frame": described,
        }

    @pytest.mark.parametrize(
        "engine",
        [
            {},
            {"shards": 2, "sync": "relaxed"},
            pytest.param(
                {"shards": 2, "sync": "relaxed", "backend": "process"},
                marks=pytest.mark.skipif(
                    not hasattr(os, "fork"), reason="process backend requires fork()"
                ),
            ),
        ],
        ids=["single", "relaxed-2", "process-2"],
    )
    def test_no_retained_record_holds_a_closure(self, engine):
        run = run_scenario(
            "ring", params={"n_bridges": 2, "hosts_per_segment": 1}, **engine
        )
        run.warm_up()
        hosts = run.hosts
        runner = PingRunner(
            run.sim, hosts[0], hosts[-1].ip, payload_size=96, count=2, interval=0.05
        )
        start = run.sim.now
        runner.start(start)
        run.sim.run_until(start + 2.0)
        records = list(run.sim.trace)
        categories = {record.category for record in records}
        assert {"nic.tx", "nic.rx", "segment.deliver", "node.forward"} <= categories
        closures = [
            record.category
            for record in records
            if isinstance(record._detail, types.FunctionType)
        ]
        assert closures == []


# ---------------------------------------------------------------------------
# Sinks
# ---------------------------------------------------------------------------


class TestListSink:
    def test_indexed_queries_match_brute_force(self, sim):
        for index in range(30):
            sim.trace.record(f"src{index % 3}", f"cat{index % 4}", value=index)
        records = list(sim.trace)
        for category in (None, "cat0", "cat3", "missing"):
            for source in (None, "src0", "src2", "missing"):
                expected = [
                    r
                    for r in records
                    if (category is None or r.category == category)
                    and (source is None or r.source == source)
                ]
                assert sim.trace.filter(category=category, source=source) == expected
                assert sim.trace.count(category=category, source=source) == len(expected)
                last = sim.trace.last(category=category, source=source)
                assert last == (expected[-1] if expected else None)

    def test_time_window_filter_uses_index(self, sim):
        recorder = sim.trace
        sim.schedule(1.0, lambda: recorder.record("a", "x"))
        sim.schedule(2.0, lambda: recorder.record("b", "x"))
        sim.schedule(3.0, lambda: recorder.record("a", "x"))
        sim.run()
        assert len(recorder.filter(category="x", since=1.5, until=2.5)) == 1
        assert len(recorder.filter(category="x", source="a", since=1.5)) == 1


class TestRingBufferSink:
    def test_evicts_oldest(self):
        sim = Simulator(trace_sinks=[RingBufferSink(capacity=3)])
        for index in range(10):
            sim.trace.record("a", "tick", value=index)
        retained = [record.detail["value"] for record in sim.trace]
        assert retained == [7, 8, 9]
        (sink,) = sim.trace.sinks
        assert sink.evicted == 7
        assert len(sink) == 3
        # Live counters still see everything ever recorded.
        assert sim.trace.count(category="tick") == 10
        assert len(sim.trace) == 10

    def test_queries_cover_the_retained_window(self):
        sim = Simulator(trace_sinks=[RingBufferSink(capacity=4)])
        for index in range(8):
            sim.trace.record("a", "even" if index % 2 == 0 else "odd", value=index)
        assert [r.detail["value"] for r in sim.trace.filter(category="even")] == [4, 6]
        assert sim.trace.last(category="odd").detail["value"] == 7

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)


class TestNullSink:
    def test_discards_records_but_counters_stay_live(self):
        sim = Simulator(trace_sinks=[NullSink()])
        sim.trace.record("a", "x")
        sim.trace.record("a", "y")
        assert list(sim.trace) == []
        assert sim.trace.filter(category="x") == []
        assert sim.trace.last(category="x") is None
        assert sim.trace.count(category="x") == 1
        assert len(sim.trace) == 2


class TestSinkManagement:
    def test_add_remove_and_replace(self, sim):
        counting = CountingSink()
        sim.trace.add_sink(counting)
        sim.trace.record("a", "x")
        assert counting.count(category="x") == 1
        sim.trace.remove_sink(counting)
        sim.trace.record("a", "x")
        assert counting.count(category="x") == 1
        assert sim.trace.count(category="x") == 2
        sim.trace.set_sinks([NullSink()])
        sim.trace.record("a", "x")
        assert list(sim.trace) == []

    def test_clear_resets_sinks_and_counters(self, sim):
        sim.trace.record("a", "x")
        sim.trace.clear()
        assert len(sim.trace) == 0
        assert sim.trace.count(category="x") == 0
        assert list(sim.trace) == []


# ---------------------------------------------------------------------------
# Live counters end to end
# ---------------------------------------------------------------------------


class TestLiveCounters:
    def test_counting_sink_matches_list_sink_on_ping_run(self):
        counting = CountingSink()
        list_sink = ListSink()
        setup, result = run_short_ping(trace_sinks=[list_sink, counting])
        assert result.received == result.sent > 0
        assert counting.total == len(list_sink) > 0
        for category in ("nic.tx", "nic.rx", "segment.deliver", "node.forward"):
            assert counting.count(category=category) == list_sink.count(category=category)
        trace = setup.network.sim.trace
        assert trace.count(category="node.forward") == counting.count(
            category="node.forward"
        )

    def test_ping_result_reads_bridge_forwards_from_live_counters(self):
        _setup, result = run_short_ping()
        # Echo request and reply both cross the bridge: two forwards per ping.
        assert result.bridge_forwards == 2 * result.received

    def test_counter_window_isolates_an_interval(self, sim):
        sim.trace.record("a", "x")
        window = CounterWindow(sim.trace)
        assert window.count(category="x") == 0
        sim.trace.record("a", "x")
        sim.trace.record("b", "y")
        assert window.count(category="x") == 1
        assert window.count(source="b") == 1
        assert window.count(category="x", source="a") == 1
        assert window.count() == 2


# ---------------------------------------------------------------------------
# Determinism with sinks swapped
# ---------------------------------------------------------------------------


class TestDeterminismAcrossSinks:
    def test_same_seed_same_trace_regardless_of_sinks(self):
        outcomes = []
        for sinks in (None, [RingBufferSink(capacity=50)], [NullSink()]):
            setup, result = run_short_ping(trace_sinks=sinks, seed=23)
            sim = setup.network.sim
            outcomes.append(
                (
                    tuple(result.rtts),
                    result.bridge_forwards,
                    sim.events_dispatched,
                    len(sim.trace),
                    sim.trace.count(category="nic.tx"),
                )
            )
        assert outcomes[0] == outcomes[1] == outcomes[2]


# ---------------------------------------------------------------------------
# Event queue: O(1) accounting, cancelled_discarded
# ---------------------------------------------------------------------------


class TestEventQueueAccounting:
    def _queue(self):
        return EventQueue(itertools.count())

    def test_len_tracks_cancellations_live(self):
        queue = self._queue()
        events = [queue.push(10 * index, lambda: None) for index in range(10)]
        assert len(queue) == 10
        for event in events[:4]:
            event.cancel()
        assert len(queue) == 6
        assert bool(queue)
        # Double-cancel must not double-count.
        events[0].cancel()
        assert len(queue) == 6

    def test_cancel_after_pop_is_harmless(self):
        queue = self._queue()
        event = queue.push(1, lambda: None)
        queue.push(2, lambda: None)
        popped = queue.pop()
        assert popped[2] is event
        event.cancel()
        assert len(queue) == 1
        assert queue.pop()[2].time_ns == 2

    def test_cancelled_discarded_counts_top_skips(self):
        queue = self._queue()
        first = queue.push(1, lambda: None)
        second = queue.push(2, lambda: None)
        third = queue.push(3, lambda: None)
        first.cancel()
        second.cancel()
        assert queue.top_key() == (3, third.sequence)
        assert queue.cancelled_discarded == 2
        assert queue.pop()[2] is third
        assert queue.pop() is None

    def test_cancellations_dominating_the_queue_are_discarded_once(self):
        sim = Simulator()
        fired = []
        doomed = [sim.schedule_at_ns(1000 + index, lambda: None) for index in range(100)]
        survivors = [
            sim.schedule_at_ns(10_000 + index, lambda t=10_000 + index: fired.append(t))
            for index in range(5)
        ]
        for event in doomed:
            event.cancel()
        assert sim.pending_events == 5
        assert sim.run() == len(survivors)
        assert fired == sorted(event.time_ns for event in survivors)
        # Draining accounts for every cancelled event exactly once.
        assert sim.cancelled_events_discarded == len(doomed)
        assert sim.pending_events == 0

    def test_simulator_exposes_discard_stat(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        assert sim.pending_events == 0
        sim.run()
        assert sim.cancelled_events_discarded == 1


# ---------------------------------------------------------------------------
# Segment byte accounting (regression)
# ---------------------------------------------------------------------------


class TestSegmentByteAccounting:
    def test_bytes_carried_uses_wire_length(self, sim):
        segment = Segment(sim, "lan", bandwidth_bps=100_000_000)
        a = NetworkInterface(sim, "a", MacAddress.locally_administered(1))
        b = NetworkInterface(sim, "b", MacAddress.locally_administered(2))
        a.attach(segment)
        b.attach(segment)
        frame = EthernetFrame(
            destination=b.mac,
            source=a.mac,
            ethertype=int(EtherType.IPV4),
            payload=b"z" * 100,
        )
        a.send(frame)
        sim.run()
        assert segment.frames_carried == 1
        assert segment.bytes_carried == frame.wire_length

    def test_utilization_matches_serialization_delay(self, sim):
        segment = Segment(sim, "lan", bandwidth_bps=100_000_000)
        a = NetworkInterface(sim, "a", MacAddress.locally_administered(1))
        b = NetworkInterface(sim, "b", MacAddress.locally_administered(2))
        a.attach(segment)
        b.attach(segment)
        frame = EthernetFrame(
            destination=b.mac,
            source=a.mac,
            ethertype=int(EtherType.IPV4),
            payload=b"z" * 500,
        )
        a.send(frame)
        sim.run()
        # Over exactly the serialization time, the wire was 100% occupied.
        busy = segment.serialization_delay(frame)
        assert segment.utilization(elapsed_seconds=busy) == pytest.approx(1.0)
