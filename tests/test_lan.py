"""Tests for the LAN substrate: segments, NICs, hosts, topology builder."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costs.model import CostModel
from repro.ethernet.ethertype import EtherType
from repro.ethernet.frame import EthernetFrame
from repro.ethernet.mac import BROADCAST, MacAddress
from repro.exceptions import InterfaceError, TopologyError
from repro.lan.host import Host
from repro.lan.nic import NetworkInterface
from repro.lan.segment import Segment
from repro.lan.topology import NetworkBuilder
from repro.netstack.ip import IPv4Address
from repro.sim.engine import Simulator


def _frame(src="02:00:00:00:00:01", dst="02:00:00:00:00:02", payload=b"x" * 64):
    return EthernetFrame(
        destination=MacAddress.from_string(dst),
        source=MacAddress.from_string(src),
        ethertype=int(EtherType.MEASUREMENT),
        payload=payload,
    )


def _nic(sim, name, mac_suffix):
    return NetworkInterface(sim, name, MacAddress.locally_administered(mac_suffix))


# ---------------------------------------------------------------------------
# Segment
# ---------------------------------------------------------------------------


class TestSegment:
    def test_delivers_to_all_other_stations(self, sim):
        segment = Segment(sim, "lan")
        sender = _nic(sim, "a", 1)
        receiver1 = _nic(sim, "b", 2)
        receiver2 = _nic(sim, "c", 3)
        got = []
        for nic in (sender, receiver1, receiver2):
            nic.attach(segment)
            nic.set_promiscuous(True)
            nic.set_handler(lambda n, f: got.append(n.name))
        sender.send(_frame())
        sim.run()
        assert sorted(got) == ["b", "c"]

    def test_serialization_delay(self, sim):
        segment = Segment(sim, "lan", bandwidth_bps=100_000_000)
        frame = _frame(payload=b"x" * 1000)
        expected = frame.wire_length * 8 / 100_000_000
        assert segment.serialization_delay(frame) == pytest.approx(expected)

    def test_delivery_time_accounts_for_wire(self, sim):
        segment = Segment(sim, "lan", bandwidth_bps=10_000_000, propagation_delay=1e-5)
        sender = _nic(sim, "a", 1)
        receiver = _nic(sim, "b", 2)
        times = []
        sender.attach(segment)
        receiver.attach(segment)
        receiver.set_promiscuous(True)
        receiver.set_handler(lambda n, f: times.append(sim.now))
        frame = _frame(payload=b"x" * 1000)
        sender.send(frame)
        sim.run()
        expected = segment.serialization_delay(frame) + 1e-5
        assert times[0] == pytest.approx(expected, rel=1e-6)

    def test_medium_serializes_back_to_back_frames(self, sim):
        segment = Segment(sim, "lan", bandwidth_bps=10_000_000)
        sender = _nic(sim, "a", 1)
        receiver = _nic(sim, "b", 2)
        times = []
        sender.attach(segment)
        receiver.attach(segment)
        receiver.set_promiscuous(True)
        receiver.set_handler(lambda n, f: times.append(sim.now))
        frame = _frame(payload=b"x" * 1000)
        sender.send(frame)
        sender.send(frame)
        sim.run()
        gap = times[1] - times[0]
        assert gap == pytest.approx(segment.serialization_delay(frame), rel=1e-6)

    def test_detached_sender_rejected(self, sim):
        segment = Segment(sim, "lan")
        outsider = _nic(sim, "x", 9)
        with pytest.raises(TopologyError):
            segment.transmit(outsider, _frame())

    def test_double_attach_rejected(self, sim):
        segment = Segment(sim, "lan")
        nic = _nic(sim, "a", 1)
        nic.attach(segment)
        with pytest.raises(TopologyError):
            segment.attach(nic)

    def test_utilization_and_counters(self, sim):
        segment = Segment(sim, "lan")
        sender = _nic(sim, "a", 1)
        receiver = _nic(sim, "b", 2)
        sender.attach(segment)
        receiver.attach(segment)
        sender.send(_frame())
        sim.run()
        assert segment.frames_carried == 1
        assert segment.bytes_carried > 0
        assert 0.0 <= segment.utilization(elapsed_seconds=1.0) <= 1.0

    def test_invalid_parameters(self, sim):
        with pytest.raises(TopologyError):
            Segment(sim, "lan", bandwidth_bps=0)
        with pytest.raises(TopologyError):
            Segment(sim, "lan", propagation_delay=-1)


# ---------------------------------------------------------------------------
# NIC
# ---------------------------------------------------------------------------


class TestNic:
    def test_address_filter_without_promiscuous(self, sim):
        segment = Segment(sim, "lan")
        sender = _nic(sim, "a", 1)
        mine = NetworkInterface(sim, "b", MacAddress.from_string("02:00:00:00:00:02"))
        other = NetworkInterface(sim, "c", MacAddress.from_string("02:00:00:00:00:03"))
        got = {"b": 0, "c": 0}
        for nic in (sender, mine, other):
            nic.attach(segment)
        mine.set_handler(lambda n, f: got.__setitem__("b", got["b"] + 1))
        other.set_handler(lambda n, f: got.__setitem__("c", got["c"] + 1))
        sender.send(_frame(dst="02:00:00:00:00:02"))
        sim.run()
        assert got == {"b": 1, "c": 0}

    def test_broadcast_accepted_by_everyone(self, sim):
        segment = Segment(sim, "lan")
        sender = _nic(sim, "a", 1)
        receiver = _nic(sim, "b", 2)
        got = []
        sender.attach(segment)
        receiver.attach(segment)
        receiver.set_handler(lambda n, f: got.append(True))
        sender.send(_frame(dst=str(BROADCAST)))
        sim.run()
        assert got == [True]

    def test_promiscuous_accepts_everything(self, sim):
        segment = Segment(sim, "lan")
        sender = _nic(sim, "a", 1)
        snooper = _nic(sim, "b", 2)
        got = []
        sender.attach(segment)
        snooper.attach(segment)
        snooper.set_promiscuous(True)
        snooper.set_handler(lambda n, f: got.append(True))
        sender.send(_frame(dst="02:00:00:00:00:77"))
        sim.run()
        assert got == [True]

    def test_down_interface_drops(self, sim):
        segment = Segment(sim, "lan")
        sender = _nic(sim, "a", 1)
        receiver = _nic(sim, "b", 2)
        sender.attach(segment)
        receiver.attach(segment)
        receiver.set_promiscuous(True)
        receiver.set_up(False)
        got = []
        receiver.set_handler(lambda n, f: got.append(True))
        sender.send(_frame())
        sim.run()
        assert got == []
        assert receiver.frames_dropped == 1

    def test_send_without_attachment_rejected(self, sim):
        nic = _nic(sim, "a", 1)
        with pytest.raises(InterfaceError):
            nic.send(_frame())

    def test_statistics(self, sim):
        segment = Segment(sim, "lan")
        sender = _nic(sim, "a", 1)
        receiver = _nic(sim, "b", 2)
        sender.attach(segment)
        receiver.attach(segment)
        receiver.set_promiscuous(True)
        receiver.set_handler(lambda n, f: None)
        sender.send(_frame())
        sim.run()
        assert sender.statistics()["frames_sent"] == 1
        assert receiver.statistics()["frames_received"] == 1

    def test_detach(self, sim):
        segment = Segment(sim, "lan")
        nic = _nic(sim, "a", 1)
        nic.attach(segment)
        nic.detach()
        assert nic.segment is None
        with pytest.raises(InterfaceError):
            nic.detach()

    def test_set_promiscuous_coerces_to_bool(self, sim):
        nic = _nic(sim, "a", 1)
        nic.set_promiscuous(1)
        assert nic.promiscuous is True


# ---------------------------------------------------------------------------
# Receive-side demultiplexing (the segment's unicast index)
# ---------------------------------------------------------------------------

#: A small MAC pool, so generated segments carry duplicate addresses.
_DEMUX_MACS = [MacAddress.locally_administered(i) for i in range(1, 5)]
_DEMUX_DESTINATIONS = {
    "unknown": MacAddress.locally_administered(99),
    "broadcast": BROADCAST,
    "multicast": MacAddress.from_string("01:80:c2:00:00:00"),
}

_demux_nics = st.lists(
    st.fixed_dictionaries(
        {
            "mac": st.integers(0, len(_DEMUX_MACS) - 1),
            "promiscuous": st.booleans(),
            "up": st.booleans(),
            "handler": st.booleans(),
        }
    ),
    min_size=2,
    max_size=12,
)
#: One step: optionally toggle one NIC's state, then send one frame.
_demux_steps = st.lists(
    st.tuples(
        st.one_of(
            st.none(),
            st.tuples(
                st.sampled_from(["up", "promiscuous", "reattach"]),
                st.integers(0, 11),
            ),
        ),
        st.integers(0, 11),
        st.sampled_from(["attached", *_DEMUX_DESTINATIONS]),
        st.integers(0, 11),
    ),
    max_size=30,
)


def _nic_counters(nics):
    return {
        nic.name: (nic.frames_received, nic.frames_dropped, nic.bytes_received)
        for nic in nics
    }


class TestReceiveDemux:
    @given(specs=_demux_nics, steps=_demux_steps)
    @settings(max_examples=150, deadline=None)
    def test_matches_full_walk_reference(self, specs, steps):
        """Indexed delivery equals walking every receiver through its filter."""
        sim = Simulator(seed=7)
        segment = Segment(sim, "lan")
        log = []
        nics = []
        for i, spec in enumerate(specs):
            nic = NetworkInterface(sim, f"n{i}", _DEMUX_MACS[spec["mac"]])
            nic.attach(segment)
            nic.set_promiscuous(spec["promiscuous"])
            nic.set_up(spec["up"])
            if spec["handler"]:
                nic.set_handler(lambda n, f: log.append((n.name, f)))
            nics.append(nic)
        for change, sender, kind, target in steps:
            if change is not None:
                nic = nics[change[1] % len(nics)]
                if change[0] == "up":
                    nic.set_up(not nic.up)
                elif change[0] == "promiscuous":
                    nic.set_promiscuous(not nic.promiscuous)
                elif nic.segment is None:
                    # Re-attach at the end of the attach order.
                    nic.attach(segment)
                else:
                    nic.detach()
            nic = nics[sender % len(nics)]
            if nic.segment is not None:
                if kind == "attached":
                    destination = nics[target % len(nics)].mac
                else:
                    destination = _DEMUX_DESTINATIONS[kind]
                frame = EthernetFrame(
                    destination=destination,
                    source=nic.mac,
                    ethertype=int(EtherType.MEASUREMENT),
                    payload=b"x" * 64,
                )
                expected = _nic_counters(nics)
                expected_log = []
                if not nic.up:
                    # A down sender drops the frame before the wire.
                    received, dropped, size = expected[nic.name]
                    expected[nic.name] = (received, dropped + 1, size)
                else:
                    for receiver in segment.interfaces:
                        if receiver is nic:
                            continue
                        received, dropped, size = expected[receiver.name]
                        if not receiver.up:
                            expected[receiver.name] = (received, dropped + 1, size)
                        elif receiver.accepts(frame):
                            expected[receiver.name] = (
                                received + 1,
                                dropped,
                                size + frame.frame_length,
                            )
                            if receiver._handler is not None:
                                expected_log.append(receiver.name)
                del log[:]
                nic.send(frame)
                sim.run()
                assert [name for name, _ in log] == expected_log
                assert all(got is frame for _, got in log)
                assert _nic_counters(nics) == expected

    def test_unicast_skips_filtered_stations(self, sim):
        segment = Segment(sim, "lan")
        nics = [_nic(sim, f"n{i}", i + 1) for i in range(5)]
        for nic in nics:
            nic.attach(segment)
        nics[3].set_promiscuous(True)
        nics[4].set_up(False)
        frame = _frame(
            src=str(nics[0].mac), dst=str(nics[2].mac)
        )
        # The addressee plus the promiscuous and down NICs, in attach order.
        assert segment._targets(frame) == (nics[2], nics[3], nics[4])
        broadcast = _frame(src=str(nics[0].mac), dst=str(BROADCAST))
        assert segment._targets(broadcast) == tuple(nics)

    def test_promiscuity_change_rebuilds_the_index(self, sim):
        segment = Segment(sim, "lan")
        nics = [_nic(sim, f"n{i}", i + 1) for i in range(3)]
        for nic in nics:
            nic.attach(segment)
        frame = _frame(src=str(nics[0].mac), dst=str(nics[1].mac))
        assert segment._targets(frame) == (nics[1],)
        nics[2].set_promiscuous(True)
        assert segment._targets(frame) == (nics[1], nics[2])
        nics[2].set_promiscuous(False)
        assert segment._targets(frame) == (nics[1],)


# ---------------------------------------------------------------------------
# Host
# ---------------------------------------------------------------------------


class TestHost:
    def _pair(self, sim):
        segment = Segment(sim, "lan")
        host_a = Host(
            sim, "a", MacAddress.locally_administered(1), IPv4Address.from_string("10.0.0.1")
        )
        host_b = Host(
            sim, "b", MacAddress.locally_administered(2), IPv4Address.from_string("10.0.0.2")
        )
        host_a.attach(segment)
        host_b.attach(segment)
        return host_a, host_b

    def test_arp_resolution_then_udp(self, sim):
        host_a, host_b = self._pair(sim)
        got = []
        host_b.bind_udp(7, lambda payload, remote: got.append((payload, str(remote[0]))))
        host_a.send_udp(host_b.ip, 7, 1234, b"hello over udp")
        sim.run()
        assert got == [(b"hello over udp", "10.0.0.1")]

    def test_ping_echo_reply(self, sim):
        host_a, host_b = self._pair(sim)
        replies = []
        host_a.stack.add_icmp_handler(
            lambda message, source: replies.append((message.is_reply, message.sequence))
        )
        host_a.ping(host_b.ip, identifier=7, sequence=3, payload=b"abc")
        sim.run()
        assert (True, 3) in replies

    def test_static_arp_skips_resolution(self, sim):
        host_a, host_b = self._pair(sim)
        host_a.stack.add_static_arp(host_b.ip, host_b.mac)
        got = []
        host_b.bind_udp(9, lambda payload, remote: got.append(payload))
        host_a.send_udp(host_b.ip, 9, 1, b"direct")
        sim.run()
        assert got == [b"direct"]
        # No ARP broadcast should have been needed.
        arp_frames = [
            record
            for record in sim.trace.filter(category="nic.tx")
            if "ARP" in record.detail["frame"]
        ]
        assert arp_frames == []

    def test_host_processing_adds_latency(self):
        fast = Simulator(seed=1)
        slow = Simulator(seed=1)
        results = {}
        for label, simulator, model in (
            ("fast", fast, CostModel(host_frame_cost=1e-6, host_byte_cost=0.0)),
            ("slow", slow, CostModel(host_frame_cost=2e-3, host_byte_cost=0.0)),
        ):
            segment = Segment(simulator, "lan")
            host_a = Host(
                simulator,
                "a",
                MacAddress.locally_administered(1),
                IPv4Address.from_string("10.0.0.1"),
                cost_model=model,
            )
            host_b = Host(
                simulator,
                "b",
                MacAddress.locally_administered(2),
                IPv4Address.from_string("10.0.0.2"),
                cost_model=model,
            )
            host_a.attach(segment)
            host_b.attach(segment)
            host_a.stack.add_static_arp(host_b.ip, host_b.mac)
            host_b.stack.add_static_arp(host_a.ip, host_a.mac)
            rtts = []
            host_a.stack.add_icmp_handler(
                lambda message, source, simulator=simulator: rtts.append(simulator.now)
            )
            host_a.ping(host_b.ip, 1, 1, b"x" * 64)
            simulator.run()
            results[label] = rtts[0]
        assert results["slow"] > results["fast"]

    def test_raw_listener_sees_frames(self, sim):
        host_a, host_b = self._pair(sim)
        seen = []
        host_b.add_raw_listener(lambda frame: seen.append(int(frame.ethertype)))
        host_a.stack.add_static_arp(host_b.ip, host_b.mac)
        host_a.send_udp(host_b.ip, 5, 5, b"x")
        sim.run()
        assert int(EtherType.IPV4) in seen

    def test_statistics_keys(self, sim):
        host_a, _ = self._pair(sim)
        stats = host_a.statistics()
        for key in ("frames_sent", "ip_packets_sent", "ip_packets_received"):
            assert key in stats


# ---------------------------------------------------------------------------
# NetworkBuilder
# ---------------------------------------------------------------------------


class TestNetworkBuilder:
    def test_builds_segments_and_hosts(self):
        builder = NetworkBuilder(seed=1)
        builder.add_segment("lan1")
        builder.add_host("h1", "lan1")
        builder.add_host("h2", "lan1")
        network = builder.build()
        assert set(network.segments) == {"lan1"}
        assert set(network.hosts) == {"h1", "h2"}

    def test_unique_addresses(self):
        builder = NetworkBuilder(seed=1)
        builder.add_segment("lan1")
        hosts = [builder.add_host(f"h{i}", "lan1") for i in range(10)]
        macs = {str(host.mac) for host in hosts}
        ips = {str(host.ip) for host in hosts}
        assert len(macs) == 10
        assert len(ips) == 10

    def test_duplicate_names_rejected(self):
        builder = NetworkBuilder(seed=1)
        builder.add_segment("lan1")
        with pytest.raises(TopologyError):
            builder.add_segment("lan1")
        builder.add_host("h1", "lan1")
        with pytest.raises(TopologyError):
            builder.add_host("h1", "lan1")

    def test_unknown_segment_rejected(self):
        builder = NetworkBuilder(seed=1)
        with pytest.raises(TopologyError):
            builder.add_host("h1", "nowhere")

    def test_populate_static_arp(self):
        builder = NetworkBuilder(seed=1)
        builder.add_segment("lan1")
        host1 = builder.add_host("h1", "lan1")
        host2 = builder.add_host("h2", "lan1")
        builder.populate_static_arp()
        assert host1.stack.arp_lookup(host2.ip) == host2.mac
        assert host2.stack.arp_lookup(host1.ip) == host1.mac

    def test_explicit_ip(self):
        builder = NetworkBuilder(seed=1)
        builder.add_segment("lan1")
        host = builder.add_host("h1", "lan1", ip="10.5.5.5")
        assert str(host.ip) == "10.5.5.5"

    def test_station_registration_and_lookup(self):
        builder = NetworkBuilder(seed=1)
        builder.add_segment("lan1")
        network = builder.build()
        builder.register_station("thing", object())
        assert network.station("thing") is not None
        with pytest.raises(TopologyError):
            network.station("missing")
        with pytest.raises(TopologyError):
            builder.register_station("thing", object())

    def test_network_lookup_errors(self):
        builder = NetworkBuilder(seed=1)
        network = builder.build()
        with pytest.raises(TopologyError):
            network.segment("nope")
        with pytest.raises(TopologyError):
            network.host("nope")
