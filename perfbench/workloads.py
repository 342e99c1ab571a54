"""The benchmark's three workloads: inputs, phases, outputs and their checks.

Each workload is a class whose instance is one complete, fresh scenario
(one repetition).  The measuring loop in ``run.py`` calls its phases in
order and times each from outside:

* ``setup``   -- ``run_scenario`` plus traffic or session installation;
* ``warm_up`` -- ``ScenarioRun.warm_up()`` to the scenario's ready time;
* ``measure`` -- the measured phase (``sim.run_until`` / ``TtcpSession.run``).

After the phases, ``outputs()`` returns the simulated results as plain JSON
data.  Simulated statistics (RTTs, Mb/s, frame counts) are outputs that are
checked for equality, never scored as performance.  ``problems()`` returns
the accounting-invariant violations that must be empty for any seed; the
pinned golden outputs in ``golden.json`` are compared on the default seed.

The scenario inputs are pinned per workload (fleet and traffic matrix,
ring size, ttcp transfer sizes).  The workload seed drives the simulator's
random source and, through ``run.py``, ``PYTHONHASHSEED``: outputs must not
depend on string-hash order, so every seed must still pass every check.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List

from repro.ethernet.frame import EthernetFrame
from repro.measurement.analysis import latency_summary
from repro.measurement.ttcp import TtcpSession
from repro.population import install_traffic
from repro.scenario import run_scenario

#: The seed whose outputs are pinned in ``golden.json``.
DEFAULT_SEED = 2


def _frames_carried(run) -> int:
    return sum(segment.frames_carried for segment in run.network.segments.values())


def _interfaces(run):
    for segment in run.network.segments.values():
        yield from segment.interfaces


def counters(run) -> Dict[str, int]:
    """Public counters read before and after each phase (all cumulative)."""
    sim = run.sim
    received = dropped = 0
    for nic in _interfaces(run):
        received += nic.frames_received
        dropped += nic.frames_dropped
    trace_counters = sim.trace.counters
    return {
        "frames": _frames_carried(run),
        "events": sim.events_dispatched,
        "records": trace_counters.total,
        "forwards": trace_counters.count(category="node.forward"),
        "nic_received": received,
        "nic_dropped": dropped,
        "cross_pushes": sum(shard.cross_pushes for shard in getattr(sim, "shards", ())),
        # Relaxed mailbox entries of the last dispatch (one per phase here).
        "mail_flushed": getattr(sim, "relaxed_stats", {}).get("mail_flushed", 0),
    }


class Workload:
    """One fresh scenario; subclasses define the phases and the checks."""

    name = ""
    SIZES: Dict[str, object] = {}

    def __init__(self, seed: int, sizes: Dict[str, object]) -> None:
        self.seed = seed
        self.sizes = sizes

    def checkpoint(self) -> None:
        """Record converged state after warm-up (called outside the timed spans)."""

    def pool_hit_ratio(self) -> float:
        """Frame-pool hits over pooled requests (0 where no pool is used)."""
        return 0.0

    def tcp_segments(self) -> int:
        """ttcp data segments sent (the tool's TCP-like transfer rides UDP)."""
        return 0


class Office(Workload):
    """``population/office``: floor LANs of 100 stations behind learning bridges.

    Every station MAC-filters every frame on its floor (about 100
    ``NetworkInterface.deliver`` calls per frame), so this workload loads
    the receive side, ``ethernet``, ``population`` and the single engine's
    event queue.  The sharded fabric is bypassed.
    """

    name = "office"
    SIZES = {"floors": 10, "hosts_per_floor": 100, "duration": 0.5}
    #: The fleet and traffic matrix the workload runs (pinned inputs).
    POP_SEED = 0
    TRAFFIC_SEED = 0

    def setup(self) -> None:
        self.run = run_scenario(
            "population/office",
            seed=self.seed,
            params={
                **self.sizes,
                "pop_seed": self.POP_SEED,
                "traffic_seed": self.TRAFFIC_SEED,
            },
        )
        self.traffic = install_traffic(self.run)

    def warm_up(self) -> None:
        self.run.warm_up()

    def measure(self) -> None:
        self.run.sim.run_until(self.traffic.horizon)

    def outputs(self) -> Dict[str, object]:
        rtts = self.traffic.service_rtts()
        summary = latency_summary(rtts)
        return {
            "traffic": self.traffic.traffic_statistics(),
            "in_flight": sum(len(client.pending) for client in self.traffic.clients),
            "rtt_samples": len(rtts),
            "rtt_min_ns": min(rtts, default=0),
            "rtt_p50_ns": summary["p50"],
            "rtt_p99_ns": summary["p99"],
            "nic_tx": self.run.sim.trace.counters.count(category="nic.tx"),
        }

    @staticmethod
    def problems(outputs) -> List[str]:
        traffic = outputs["traffic"]
        found = []
        if traffic["requests_sent"] != traffic["responses_received"] + outputs["in_flight"]:
            found.append("requests are neither answered nor in flight")
        if traffic["responses_sent"] < traffic["responses_received"]:
            found.append("more responses received than sent")
        if outputs["rtt_samples"] != traffic["responses_received"]:
            found.append("svc.rtt records do not match responses received")
        if outputs["rtt_samples"] and outputs["rtt_min_ns"] <= 0:
            found.append("non-positive service RTT")
        if traffic["requests_sent"] == 0:
            found.append("no request was offered")
        return found

    @staticmethod
    def operations(outputs):
        """(offered, completed) requests by the traffic horizon."""
        traffic = outputs["traffic"]
        return traffic["requests_sent"], traffic["responses_received"]

    def pool_hit_ratio(self) -> float:
        stats = self.traffic.pool_statistics()
        served = stats["hits"] + stats["misses"]
        return stats["hits"] / served if served else 0.0


class Ring(Workload):
    """Catalog ``ring``: a chain of active bridges running DEC spanning tree.

    Warm-up is spanning-tree convergence (``core``, ``switchlets``,
    ``costs``, fabric crossings) on the relaxed fabric with two shards run
    sequentially on one thread.  The measured phase downs every bridge
    port and has each LAN's host pair exchange raw frames: ``sim``,
    ``lan.segment``, ``sim.trace`` and the express lane, with at most four
    NICs per LAN, so the bridges and the receive side are bypassed.
    """

    name = "ring"
    SIZES = {"lans": 64, "frames_per_pair": 1200}
    #: Experimental ethertype of the blast frames (never parsed by a stack).
    ETHERTYPE = 0x88B5
    PAYLOAD = 256
    #: Upper bound on simulated seconds per exchanged frame (sizes the window).
    FRAME_BUDGET_S = 40e-6

    def setup(self) -> None:
        self.run = run_scenario(
            "ring",
            seed=self.seed,
            params={"n_bridges": self.sizes["lans"] - 1, "hosts_per_segment": 2},
            shards=2,
            sync="relaxed",
            workers=0,
        )

    def warm_up(self) -> None:
        self.run.warm_up()

    def checkpoint(self) -> None:
        trees = {
            device.name: self.run.device(device.name).func.lookup("stp.dec").snapshot()
            for device in self.run.spec.devices
        }
        self.port_states = {
            f"{name}.{port}": state
            for name, tree in trees.items()
            for port, state in tree["port_states"].items()
        }
        self.roots = {tree["root_mac"] for tree in trees.values()}

    def measure(self) -> None:
        run = self.run
        for device in run.devices:
            for nic in device.interfaces.values():
                nic.set_up(False)
        frames = int(self.sizes["frames_per_pair"])
        self.remaining = []
        starts = []
        for segment in run.spec.segments:
            left = run.host(f"{segment.name}h1")
            right = run.host(f"{segment.name}h2")
            forward = self._frame(left, right)
            backward = self._frame(right, left)
            remaining = [frames]
            self.remaining.append(remaining)
            left.nic.set_handler(_bounce(left.nic, forward, remaining), inline_safe=True)
            right.nic.set_handler(_bounce(right.nic, backward, remaining), inline_safe=True)
            starts.append((left.nic, forward))
        self.blast_frames_before = _frames_carried(run)
        for nic, frame in starts:
            nic.send(frame)
        run.sim.run_until(run.sim.now + frames * self.FRAME_BUDGET_S)

    def _frame(self, source, destination) -> EthernetFrame:
        return EthernetFrame(
            destination=destination.mac,
            source=source.mac,
            ethertype=self.ETHERTYPE,
            payload=bytes(self.PAYLOAD),
        )

    def outputs(self) -> Dict[str, object]:
        frames = int(self.sizes["frames_per_pair"])
        by_pair = self.run.sim.trace.counters.by_category_source
        digest = hashlib.sha256(
            json.dumps(sorted([*key, value] for key, value in by_pair.items())).encode()
        ).hexdigest()
        return {
            "pairs": len(self.remaining),
            "frames_offered": frames * len(self.remaining),
            "frames_echoed": sum(frames - max(0, count[0]) for count in self.remaining),
            "blast_frames_carried": _frames_carried(self.run) - self.blast_frames_before,
            "blocked_ports": sorted(
                port for port, state in self.port_states.items() if state == "blocking"
            ),
            "forwarding_ports": sum(
                state == "forwarding" for state in self.port_states.values()
            ),
            "ports": len(self.port_states),
            "roots": len(self.roots),
            "counters_sha256": digest,
        }

    @staticmethod
    def problems(outputs) -> List[str]:
        found = []
        if outputs["frames_echoed"] != outputs["frames_offered"]:
            found.append("a host pair did not complete its blast")
        if outputs["blast_frames_carried"] != outputs["frames_offered"]:
            found.append("blast frames carried differ from frames echoed")
        if outputs["roots"] != 1:
            found.append("bridges disagree on the spanning-tree root")
        # A chain has no loop, so a converged tree forwards on every port.
        if outputs["blocked_ports"] or outputs["forwarding_ports"] != outputs["ports"]:
            found.append("spanning tree did not converge to all-forwarding")
        return found

    @staticmethod
    def operations(outputs):
        """(offered, completed) blast frames."""
        return outputs["frames_offered"], outputs["frames_echoed"]


def _bounce(nic, reply, remaining):
    def handler(_nic, _frame) -> None:
        remaining[0] -= 1
        if remaining[0] > 0:
            nic.send(reply)

    return handler


class BridgeTtcp(Workload):
    """``pair/active-bridge`` (the Figure 10 setup): ttcp through the bridge.

    Three back-to-back transfers through the learning-bridge switchlet, from
    per-packet cost (32 B writes) to bulk (8 KB writes).  Loads
    ``netstack``, the switchlet interpreter (``core``, ``switchlets``) and
    the ``costs`` CPU model on every forwarded frame; barely touches
    ``population`` or the fabric.
    """

    name = "bridge-ttcp"
    SIZES = {"transfers": ((32, 100_000), (1024, 2_000_000), (8192, 8_000_000))}
    DEADLINE_S = 180.0

    def setup(self) -> None:
        self.run = run_scenario("pair/active-bridge", seed=self.seed)
        pair = self.run.as_pair()
        self.sessions = [
            TtcpSession(
                self.run.sim,
                pair.left,
                pair.right,
                buffer_size=size,
                total_bytes=total,
                receiver_port=7000 + 2 * index,
                sender_port=7001 + 2 * index,
            )
            for index, (size, total) in enumerate(self.sizes["transfers"])
        ]

    def warm_up(self) -> None:
        self.run.warm_up()

    def measure(self) -> None:
        start = self.run.ready_time
        for session in self.sessions:
            session.run(start_time=start, deadline=self.DEADLINE_S)
            start = self.run.sim.now + 0.5

    def outputs(self) -> Dict[str, object]:
        return {
            str(session.buffer_size): {
                "completed": session.result.completed,
                "total_bytes": session.total_bytes,
                "bytes_received": session.result.bytes_received,
                "segments_sent": session.result.segments_sent,
                "segments_received": session.result.segments_received,
                "total_segments": session.total_segments,
                "bridge_forwards": session.result.bridge_forwards,
                "mbps": session.result.throughput_mbps,
            }
            for session in self.sessions
        }

    @staticmethod
    def problems(outputs) -> List[str]:
        found = []
        for size, result in outputs.items():
            if not result["completed"] or result["bytes_received"] != result["total_bytes"]:
                found.append(f"{size} B transfer did not deliver every byte")
            if not (
                result["segments_sent"]
                == result["segments_received"]
                == result["total_segments"]
            ):
                found.append(f"{size} B transfer lost or duplicated segments")
            if result["bridge_forwards"] < result["segments_received"]:
                found.append(f"{size} B transfer bypassed the bridge")
        return found

    @staticmethod
    def operations(outputs):
        """(offered, completed) bytes."""
        return (
            sum(result["total_bytes"] for result in outputs.values()),
            sum(result["bytes_received"] for result in outputs.values()),
        )

    def tcp_segments(self) -> int:
        return sum(session.result.segments_sent for session in self.sessions)


WORKLOADS = {workload.name: workload for workload in (Office, Ring, BridgeTtcp)}


def golden_mismatches(outputs, golden) -> List[str]:
    """Keys whose output differs from the pinned golden value."""
    if set(outputs) != set(golden):
        return [f"keys {sorted(set(outputs) ^ set(golden))}"]
    found = []
    for key in sorted(outputs):
        if isinstance(golden[key], dict) and isinstance(outputs[key], dict):
            found += [f"{key}.{sub}" for sub in golden_mismatches(outputs[key], golden[key])]
        elif outputs[key] != golden[key]:
            found.append(f"{key}: expected {golden[key]!r}, got {outputs[key]!r}")
    return found
