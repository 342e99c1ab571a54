"""The C buffered repeater baseline (Section 7.3).

"We also built a very simple buffered repeater in C to try to determine the
smallest overheads that a user mode program could expect to see.  This
program simply opens two Ethernet devices in promiscuous mode and, for each
packet received on one of the interfaces, writes the packet on the other.
This gives some idea of the costs caused by bringing the data through the
Linux kernel into user space."

:class:`BufferedRepeater` is that program as a simulated station: no
switchlet machinery, no learning, no spanning tree — just a per-frame cost
(two kernel crossings plus a small copy) charged on a single-server CPU and a
blind copy to every other port.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.costs.cpu import CpuQueue
from repro.costs.model import CostModel
from repro.ethernet.frame import EthernetFrame
from repro.ethernet.mac import MacAddress
from repro.exceptions import TopologyError
from repro.lan.nic import NetworkInterface
from repro.lan.segment import Segment
from repro.sim.engine import Simulator
from repro.sim.trace import interface_detail

#: Namespace base for repeater interface MACs (allocated per engine, so runs
#: in one process stay bit-identical).
_AUTO_MAC_BASE = 0xC0_0000


class BufferedRepeater:
    """A user-space buffered repeater with no bridge intelligence.

    Args:
        sim: owning simulator.
        name: station name used in traces.
        cost_model: cost constants (the repeater uses the ``repeater_*`` and
            ``kernel_crossing`` entries).
    """

    def __init__(
        self, sim: Simulator, name: str, cost_model: Optional[CostModel] = None
    ) -> None:
        self.sim = sim
        self.name = name
        self.costs = cost_model if cost_model is not None else CostModel()
        self.cpu = CpuQueue(sim, f"{name}.cpu")
        self.interfaces: Dict[str, NetworkInterface] = {}
        self.frames_received = 0
        self.frames_repeated = 0

    def add_interface(
        self, name: str, segment: Segment, mac: Optional[MacAddress] = None
    ) -> NetworkInterface:
        """Attach a promiscuous interface to a segment."""
        if name in self.interfaces:
            raise TopologyError(f"repeater {self.name!r} already has interface {name!r}")
        if mac is None:
            mac = MacAddress.locally_administered(self.sim.auto_station_id(_AUTO_MAC_BASE))
        nic = NetworkInterface(self.sim, f"{self.name}.{name}", mac)
        nic.attach(segment)
        nic.set_promiscuous(True)
        # segment_local: the repeat path rides the CPU queue (see _receive).
        nic.set_handler(
            lambda _nic, frame, port=name: self._receive(port, frame),
            segment_local=True,
        )
        self.interfaces[name] = nic
        return nic

    def _receive(self, in_port: str, frame: EthernetFrame) -> None:
        self.frames_received += 1
        cost = self.costs.repeater_frame_cost_total(frame.frame_length)

        def repeat() -> None:
            trace = self.sim.trace
            forward_wanted = trace.wants("repeater.forward")
            for name, nic in self.interfaces.items():
                if name == in_port:
                    continue
                self.frames_repeated += 1
                if forward_wanted:
                    trace.emit(
                        self.name, "repeater.forward", (interface_detail, name)
                    )
                nic.send(frame)

        self.cpu.submit(cost, repeat)

    def statistics(self) -> dict:
        """Forwarding counters."""
        return {
            "frames_received": self.frames_received,
            "frames_repeated": self.frames_repeated,
            "cpu_utilization": self.cpu.utilization(),
        }
