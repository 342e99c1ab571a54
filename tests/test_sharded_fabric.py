"""The sharded event fabric: partitioning, conservative sync, determinism.

Four layers are covered:

* the **per-shard scheduling core** — the bucketed event ring's ordering,
  cancellation and fire-and-forget semantics;
* the **segment-graph partitioner** — balanced contiguous placement, cut
  segments, the positive-lookahead requirement, explicit overrides;
* the **coordinator facade** — Simulator API parity (run/run_until/step,
  validation errors, counters) and the merged trace plane;
* the headline guarantee: **every catalog scenario, run with shards=1,2,4,
  produces traces and counters bit-identical to the unsharded engine.**
"""

from __future__ import annotations

import pytest

from repro.exceptions import SchedulingError, SimulationError
from repro.measurement.ping import PingRunner
from repro.scenario import (
    PartitionSpec,
    ScenarioSpec,
    SegmentSpec,
    list_scenarios,
    get_scenario,
    plan_partition,
    run_scenario,
)
from repro.sim.engine import Simulator
from repro.sim.events import EventQueue
from repro.sim.fabric import ShardedSimulator
from repro.sim.trace import CounterWindow, RingBufferSink
import itertools


# ---------------------------------------------------------------------------
# The per-shard event ring
# ---------------------------------------------------------------------------


class TestShardQueue:
    """A shard's ring is the one :class:`EventQueue` on the fabric's counter."""

    def _queue(self):
        return EventQueue(itertools.count())

    def test_pops_in_time_then_sequence_order(self):
        queue = self._queue()
        fired = []
        queue.push(20, lambda: fired.append("b"))
        queue.push(10, lambda: fired.append("a1"))
        queue.push(10, lambda: fired.append("a2"))
        while queue:
            queue.pop()[1]()
        assert fired == ["a1", "a2", "b"]

    def test_same_time_bucket_is_fifo(self):
        queue = self._queue()
        order = [queue.push(5, lambda: None).sequence for _ in range(10)]
        popped = [queue.pop()[0] for _ in range(10)]
        assert popped == order

    def test_cancelled_events_are_skipped_and_counted(self):
        queue = self._queue()
        keep = queue.push(5, lambda: None)
        drop = queue.push(5, lambda: None)
        drop.cancel()
        assert len(queue) == 1
        assert queue.top_key() == (5, keep.sequence)
        assert queue.pop()[2] is keep
        # The cancelled corpse now heads the bucket and is discarded lazily.
        assert queue.top_key() is None
        assert queue.cancelled_discarded == 1

    def test_cancelled_head_discarded_by_top_key(self):
        queue = self._queue()
        first = queue.push(1, lambda: None)
        second = queue.push(2, lambda: None)
        first.cancel()
        assert queue.top_key() == (2, second.sequence)
        assert queue.cancelled_discarded == 1

    def test_push_fire_keeps_order_without_handles(self):
        queue = self._queue()
        queue.push(7, lambda: None)
        sequence = queue.push_fire(7, lambda: None)
        entries = [queue.pop() for _ in range(2)]
        assert entries[1][0] == sequence
        assert entries[1][2] is None

    def test_reusing_a_drained_bucket_time(self):
        queue = self._queue()
        queue.push(3, lambda: None)
        queue.pop()
        queue.push(3, lambda: None)
        assert queue.top_key()[0] == 3
        assert len(queue) == 1

    def test_clear_detaches_events(self):
        queue = self._queue()
        event = queue.push(3, lambda: None)
        queue.clear()
        assert not queue
        event.cancel()  # must not corrupt the emptied queue
        assert len(queue) == 0


# ---------------------------------------------------------------------------
# The partitioner
# ---------------------------------------------------------------------------


def _chain_spec(n_bridges=4):
    return get_scenario("chain", n_bridges=n_bridges)


class TestPartitionPlanner:
    def test_single_shard_plan_is_trivial(self):
        plan = plan_partition(_chain_spec(), 1)
        assert plan.n_shards == 1
        assert set(plan.assignments.values()) == {0}
        assert plan.cut_segments == ()

    def test_contiguous_balanced_chunks(self):
        plan = plan_partition(_chain_spec(4), 2)
        segments = [f"seg{i}" for i in range(5)]
        shards = [plan.assignments[name] for name in segments]
        assert shards == sorted(shards), "chunks must be contiguous"
        assert set(shards) == {0, 1}

    def test_hosts_follow_their_segment(self):
        plan = plan_partition(_chain_spec(4), 2)
        assert plan.assignments["left"] == plan.assignments["seg0"]
        assert plan.assignments["right"] == plan.assignments["seg4"]

    def test_devices_follow_first_port(self):
        plan = plan_partition(_chain_spec(4), 2)
        for index in range(1, 5):
            bridge = f"bridge{index}"
            assert plan.assignments[bridge] == plan.assignments[f"seg{index - 1}"]

    def test_cut_segments_and_lookahead(self):
        plan = plan_partition(_chain_spec(4), 2)
        assert plan.cut_segments, "a split chain must have at least one cut"
        # Minimum-frame wire time (84 bytes at 100 Mb/s = 6720 ns) plus the
        # default 2 us propagation delay, minus 1 ns of rounding headroom.
        assert plan.lookahead_ns == 8719

    def test_shards_clamped_to_segment_count(self):
        plan = plan_partition(_chain_spec(1), 16)
        assert plan.n_shards == 2  # two segments

    def test_zero_lookahead_cut_rejected(self):
        from dataclasses import replace

        spec = get_scenario("chain", n_bridges=1)
        zero = replace(
            spec,
            segments=tuple(
                replace(segment, propagation_delay=0.0) for segment in spec.segments
            ),
        )
        with pytest.raises(ValueError, match="zero"):
            plan_partition(zero, 2)

    def test_explicit_assignments_override(self):
        plan = plan_partition(
            _chain_spec(4), PartitionSpec(shards=2, assignments={"bridge2": 1})
        )
        assert plan.assignments["bridge2"] == 1

    def test_partition_spec_validation(self):
        with pytest.raises(ValueError, match="at least one shard"):
            PartitionSpec(shards=0)
        with pytest.raises(ValueError, match="outside"):
            PartitionSpec(shards=2, assignments={"x": 5})

    def test_explicit_assignment_beyond_clamped_shards_rejected(self):
        # Two segments clamp a 4-shard request to 2 shards; an explicit
        # placement on shard 3 must fail loudly, not IndexError at build.
        with pytest.raises(ValueError, match="only 2 shard"):
            plan_partition(
                _chain_spec(1), PartitionSpec(shards=4, assignments={"seg1": 3})
            )

    def test_explicit_assignment_of_unknown_component_rejected(self):
        with pytest.raises(ValueError, match="unknown component"):
            plan_partition(
                _chain_spec(4), PartitionSpec(shards=2, assignments={"bridg1": 1})
            )


# ---------------------------------------------------------------------------
# The coordinator facade
# ---------------------------------------------------------------------------


class TestShardedSimulatorFacade:
    def test_run_until_matches_single_engine(self):
        def drive(sim, engines):
            fired = []
            for tag, engine in engines:
                def cb(tag=tag, engine=engine):
                    fired.append((tag, sim.now_ns))
                    engine.schedule(1e-6, cb)
                engine.schedule(0.0, cb)
            sim.run_until(5e-6)
            return fired

        single = Simulator()
        fabric = ShardedSimulator(shards=2)
        expected = drive(single, [("a", single), ("b", single)])
        actual = drive(fabric, [("a", fabric.shards[0]), ("b", fabric.shards[1])])
        assert actual == expected
        assert fabric.now == single.now == 5e-6

    def test_step_and_run_and_reset(self):
        fabric = ShardedSimulator(shards=2)
        hits = []
        fabric.shards[1].schedule(2e-6, lambda: hits.append("late"))
        fabric.shards[0].schedule(1e-6, lambda: hits.append("early"))
        assert fabric.step() is True
        assert hits == ["early"]
        assert fabric.run() == 1
        assert hits == ["early", "late"]
        assert fabric.step() is False
        fabric.reset()
        assert fabric.now == 0.0
        assert fabric.pending_events == 0

    def test_max_events_budget(self):
        fabric = ShardedSimulator(shards=2)
        hits = []
        for i in range(6):
            fabric.shards[i % 2].schedule(i * 1e-6, lambda i=i: hits.append(i))
        assert fabric.run(max_events=4) == 4
        assert hits == [0, 1, 2, 3]
        assert fabric.run(max_events=0) == 0  # parity with Simulator
        assert hits == [0, 1, 2, 3]

    def test_past_scheduling_rejected_like_single_engine(self):
        single = Simulator()
        fabric = ShardedSimulator(shards=2)
        single.run_until(1.0)
        fabric.run_until(1.0)
        with pytest.raises(SchedulingError) as single_err:
            single.schedule_at(0.5, lambda: None)
        with pytest.raises(SchedulingError) as fabric_err:
            fabric.shards[1].schedule_at(0.5, lambda: None)
        assert str(single_err.value) == str(fabric_err.value)

    def test_run_until_backwards_rejected(self):
        fabric = ShardedSimulator(shards=2)
        fabric.run_until(1.0)
        with pytest.raises(SimulationError, match="earlier"):
            fabric.run_until(0.5)

    def test_auto_station_ids_are_fabric_wide(self):
        fabric = ShardedSimulator(shards=2)
        first = fabric.shards[0].auto_station_id(0xB0_0000)
        second = fabric.shards[1].auto_station_id(0xB0_0000)
        assert (first, second) == (0xB0_0000, 0xB0_0001)

    def test_reset_rewinds_station_ids(self):
        single = Simulator()
        single.auto_station_id(0xB0_0000)
        single.reset()
        assert single.auto_station_id(0xB0_0000) == 0xB0_0000
        fabric = ShardedSimulator(shards=2)
        fabric.shards[1].auto_station_id(0xB0_0000)
        fabric.reset()
        assert fabric.shards[0].auto_station_id(0xB0_0000) == 0xB0_0000

    def test_schedule_fire_orders_with_cancellable_events(self):
        fabric = ShardedSimulator(shards=1)
        shard = fabric.shards[0]
        fired = []
        shard.schedule_at(1e-6, lambda: fired.append("event"))
        shard.schedule_fire(1e-6, lambda: fired.append("fire"))
        fabric.run()
        assert fired == ["event", "fire"]


class TestFabricTrace:
    def _emitting_fabric(self):
        fabric = ShardedSimulator(shards=2)

        def make_tick(shard, index):
            def tick():
                shard.trace.emit(f"s{index}", "tick", {"shard": index})
                shard.schedule(1e-6, tick)

            return tick

        for index, shard in enumerate(fabric.shards):
            shard.schedule(0.0, make_tick(shard, index))
        return fabric

    def test_merged_stream_is_in_emission_order(self):
        fabric = self._emitting_fabric()
        fabric.run_until(3e-6)
        records = list(fabric.trace)
        assert [record.source for record in records] == ["s0", "s1"] * 4
        sequences = [record.seq for record in records]
        assert sequences == sorted(sequences)

    def test_counters_and_queries(self):
        fabric = self._emitting_fabric()
        fabric.run_until(2e-6)
        assert len(fabric.trace) == 6
        assert fabric.trace.count(source="s0") == 3
        assert fabric.trace.count(category="tick") == 6
        assert fabric.trace.last(source="s1").detail == {"shard": 1}
        assert len(fabric.trace.filter(category="tick", since=1e-6)) == 4

    def test_counter_window_sees_live_totals(self):
        fabric = self._emitting_fabric()
        fabric.run_until(1e-6)
        window = CounterWindow(fabric.trace)
        fabric.run_until(3e-6)
        assert window.count(category="tick") == 4

    def test_gating_fans_out_to_all_shards(self):
        fabric = self._emitting_fabric()
        fabric.trace.disable_category("tick")
        fabric.run_until(2e-6)
        assert len(fabric.trace) == 0
        assert not fabric.shards[0].trace.wants("tick")
        fabric.trace.enable_category("tick")
        fabric.run_until(4e-6)
        assert len(fabric.trace) > 0

    def test_shared_ring_sink_sees_merged_stream(self):
        ring = RingBufferSink(capacity=4)
        fabric = ShardedSimulator(shards=2, trace_sinks=[ring])
        for index, shard in enumerate(fabric.shards):
            shard.trace.emit(f"s{index}", "boot")
        assert [record.source for record in ring] == ["s0", "s1"]
        assert list(fabric.trace)[0].source == "s0"

    def test_clear_resets_everything(self):
        fabric = self._emitting_fabric()
        fabric.run_until(2e-6)
        fabric.trace.clear()
        assert len(fabric.trace) == 0
        assert list(fabric.trace) == []


# ---------------------------------------------------------------------------
# Cross-shard frame handoff
# ---------------------------------------------------------------------------


class TestInterShardChannel:
    def test_cut_segment_counts_cross_shard_frames(self):
        run = run_scenario("chain", params={"n_bridges": 4}, shards=2)
        left, right = run.host("left"), run.host("right")
        result = PingRunner(
            run.sim, left, right.ip, payload_size=64, count=2, interval=0.05
        ).run(start_time=run.ready_time)
        assert result.received == 2
        crossed = sum(
            run.segment(name).cross_shard_frames
            for name in run.partition.cut_segments
        )
        assert crossed > 0
        stats = run.network.sim.shard_stats()
        assert sum(entry["cross_pushes"] for entry in stats) > 0

    def test_facade_homed_nic_receives_on_a_sharded_segment(self):
        # A monitoring NIC built against the facade (run.sim) must work on a
        # sharded run exactly as it does on a single-engine run.
        from repro.ethernet.ethertype import EtherType
        from repro.ethernet.frame import EthernetFrame
        from repro.ethernet.mac import MacAddress
        from repro.lan.nic import NetworkInterface

        run = run_scenario("chain", params={"n_bridges": 2}, shards=2)
        run.warm_up()
        seen = []
        spy = NetworkInterface(
            run.sim, "spy", MacAddress.from_string("02:aa:00:00:00:08")
        )
        spy.attach(run.segment("seg1"))
        spy.set_promiscuous(True)
        spy.set_handler(lambda _nic, frame: seen.append(frame))
        result = PingRunner(
            run.sim, run.host("left"), run.host("right").ip,
            payload_size=64, count=1, interval=0.05,
        ).run(start_time=run.sim.now)
        assert result.received == 1
        assert seen, "the facade-homed spy saw no frames"

    def test_delivery_runs_refresh_on_attach_detach(self):
        fabric = ShardedSimulator(shards=2)
        from repro.ethernet.mac import MacAddress
        from repro.lan.nic import NetworkInterface
        from repro.lan.segment import Segment

        segment = Segment(fabric.shards[0], "lan")
        local = NetworkInterface(
            fabric.shards[0], "local", MacAddress.locally_administered(1)
        )
        remote = NetworkInterface(
            fabric.shards[1], "remote", MacAddress.locally_administered(2)
        )
        local.attach(segment)
        assert segment._delivery_runs is None
        remote.attach(segment)
        assert segment._delivery_runs is not None
        assert [engine for engine, _ in segment._delivery_runs] == [
            fabric.shards[0],
            fabric.shards[1],
        ]
        remote.detach()
        assert segment._delivery_runs is None


# ---------------------------------------------------------------------------
# The headline: catalog-wide bit-identical determinism
# ---------------------------------------------------------------------------


def _drive(name, shards):
    """Compile, warm up and (when possible) ping across a catalog scenario."""
    params = {"n_bridges": 2} if name in ("ring", "chain") else None
    run = run_scenario(name, params=params, shards=shards)
    run.warm_up()
    hosts = run.hosts
    if len(hosts) >= 2:
        PingRunner(
            run.sim, hosts[0], hosts[1].ip, payload_size=96, count=2, interval=0.05
        ).run(start_time=run.sim.now)
    return run


def _observables(run):
    counters = dict(run.sim.trace.counters.by_category_source)
    host_stats = {host.name: host.statistics() for host in run.hosts}
    segment_stats = {
        name: (segment.frames_carried, segment.bytes_carried)
        for name, segment in run.network.segments.items()
    }
    return counters, host_stats, segment_stats, run.sim.now


@pytest.mark.parametrize(
    "name", sorted(entry.name for entry in list_scenarios())
)
def test_catalog_scenarios_are_bit_identical_when_sharded(name):
    """Traces and counters of shards=1,2,4 equal the unsharded engine's."""
    reference = _drive(name, 1)
    assert reference.partition is None
    reference_records = list(reference.sim.trace)
    reference_observables = _observables(reference)
    for shards in (2, 4):
        sharded = _drive(name, shards)
        records = list(sharded.sim.trace)
        assert len(records) == len(reference_records), (name, shards)
        assert records == reference_records, (name, shards)
        assert _observables(sharded) == reference_observables, (name, shards)
        if sharded.n_shards > 1:
            # Merge keys are stamped and strictly increasing.
            sequences = [record.seq for record in records]
            assert sequences == sorted(sequences)


def test_sharded_run_reports_partition():
    run = run_scenario("chain", params={"n_bridges": 4}, shards=2)
    assert run.n_shards == 2
    assert run.partition is not None
    assert run.partition.lookahead_ns == 8719
    assert run.network.sim.lookahead_ns == 8719


def test_ring_with_hosts_is_deterministic_when_sharded():
    """The benchmark topology itself: hosts on every LAN, STP across shards."""
    single = run_scenario("ring", params={"n_bridges": 7, "hosts_per_segment": 1})
    single.warm_up()
    sharded = run_scenario(
        "ring", params={"n_bridges": 7, "hosts_per_segment": 1}, shards=4
    )
    sharded.warm_up()
    assert list(single.sim.trace) == list(sharded.sim.trace)
    assert dict(single.sim.trace.counters.by_category_source) == dict(
        sharded.sim.trace.counters.by_category_source
    )
