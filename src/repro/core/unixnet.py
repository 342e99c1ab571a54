"""``Unixnet`` — the network access module of Figure 4.

This is the interface through which switchlets reach the machine's network
interfaces.  It follows the paper's signature closely:

* input and output are separated (``iport`` / ``oport``),
* ports are bound by interface name (``bind_in``/``bind_out``), by "next
  available" (``get_iport``/``get_oport``), or by *address*
  (``bind_addr``) — the mechanism the spanning-tree and control switchlets
  use to claim the All-Bridges / DEC multicast addresses,
* the **first switchlet to bind a given port succeeds and all others fail**
  (``Already_bound``), and binding an input port puts the underlying
  interface into promiscuous mode,
* packets are records of ``(len, addr, pkt)`` that the switchlet must
  unmarshal itself.

Two pragmatic adaptations for an event-driven simulator are documented here
rather than hidden:

* ``pkt`` contains the frame header plus payload but **not** the frame check
  sequence; the FCS is computed by the NIC on transmit (the paper likewise
  cannot set the CRC on a write) and verified by the NIC on receive.
* In addition to the pull-style ``get_next_pkt_in``, a bound input port may
  install a push handler with ``set_handler_in``; the paper gets the same
  effect with a per-port reader thread, which a discrete-event kernel
  expresses more naturally as a callback.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional

from repro.ethernet.ethertype import EtherType
from repro.ethernet.frame import EthernetFrame, VlanTag
from repro.ethernet.mac import MacAddress
from repro.exceptions import AlreadyBound, FrameError, NoInterface
from repro.core.safeunix import SockAddr
from repro.sim.trace import unclaimed_detail


#: The 802.1Q tag protocol identifier, recognized in ``pkt`` byte strings.
_VLAN_TPID = int(EtherType.VLAN_8021Q)


def frame_to_packet_bytes(frame: EthernetFrame) -> bytes:
    """Flatten an Ethernet frame into the ``pkt`` byte string switchlets see.

    802.1Q tags are preserved in-line (TPID + TCI between the source address
    and the real EtherType), exactly as on the wire — a VLAN-aware switchlet
    must unmarshal the tag itself, like any other header field.
    """
    header = frame.destination.octets + frame.source.octets
    if frame.vlan is not None:
        header += _VLAN_TPID.to_bytes(2, "big") + frame.vlan.tci.to_bytes(2, "big")
    return header + int(frame.ethertype).to_bytes(2, "big") + frame.payload


#: Version byte of the frame-envelope format (see :func:`frame_to_envelope_bytes`).
_ENVELOPE_VERSION = 1

#: Envelope flag bits.
_ENV_HAS_VLAN = 0x01
_ENV_HAS_VERDICT = 0x02
_ENV_HAS_SEQ = 0x04

#: Fault-model verdict codes carried by the envelope.
ENVELOPE_VERDICTS = (None, "deliver", "loss", "corrupt")


def frame_to_envelope_bytes(
    frame: EthernetFrame,
    when_ns: int = 0,
    verdict: Optional[str] = None,
    seq: Optional[int] = None,
) -> bytes:
    """Flatten a frame into a *lossless* transport envelope.

    The wire format of :func:`frame_to_packet_bytes` is what switchlets see
    and is deliberately ambiguous for one corner: an untagged frame whose
    EtherType happens to be 0x8100 re-parses as a tagged frame.  The
    envelope is the fabric's own transport encoding (cross-process shard
    mailboxes), so it must round-trip *every* field exactly; it therefore
    carries an explicit VLAN-presence flag instead of the in-line TPID
    trick, plus the metadata a serialized mailbox entry needs: the
    simulated emission time, an optional fault-model verdict, and an
    optional emission sequence number.

    Layout (big-endian throughout)::

        version(1) flags(1) when_ns(8) dst(6) src(6) ethertype(2)
        [tci(2) if flags&HAS_VLAN] [verdict(1) if flags&HAS_VERDICT]
        [seq(8) if flags&HAS_SEQ] payload_len(4) payload
    """
    flags = 0
    extra = b""
    if frame.vlan is not None:
        flags |= _ENV_HAS_VLAN
        extra += frame.vlan.tci.to_bytes(2, "big")
    if verdict is not None:
        if verdict not in ENVELOPE_VERDICTS:
            raise FrameError(f"unknown envelope verdict {verdict!r}")
        flags |= _ENV_HAS_VERDICT
        extra += bytes([ENVELOPE_VERDICTS.index(verdict)])
    if seq is not None:
        flags |= _ENV_HAS_SEQ
        extra += seq.to_bytes(8, "big")
    return (
        bytes([_ENVELOPE_VERSION, flags])
        + when_ns.to_bytes(8, "big")
        + frame.destination.octets
        + frame.source.octets
        + int(frame.ethertype).to_bytes(2, "big")
        + extra
        + len(frame.payload).to_bytes(4, "big")
        + frame.payload
    )


def envelope_bytes_to_frame(data: bytes):
    """Rebuild ``(frame, meta)`` from :func:`frame_to_envelope_bytes` output.

    ``meta`` is a dict with keys ``when_ns``, ``verdict`` (``None`` or one
    of :data:`ENVELOPE_VERDICTS`), and ``seq`` (``None`` if absent).
    """
    if len(data) < 28:
        raise FrameError(f"envelope too short: {len(data)} bytes")
    if data[0] != _ENVELOPE_VERSION:
        raise FrameError(f"unknown envelope version {data[0]}")
    flags = data[1]
    when_ns = int.from_bytes(bytes(data[2:10]), "big")
    destination = MacAddress(bytes(data[10:16]))
    source = MacAddress(bytes(data[16:22]))
    ethertype = int.from_bytes(bytes(data[22:24]), "big")
    offset = 24
    vlan = None
    if flags & _ENV_HAS_VLAN:
        vlan = VlanTag.from_tci(int.from_bytes(bytes(data[offset : offset + 2]), "big"))
        offset += 2
    verdict = None
    if flags & _ENV_HAS_VERDICT:
        code = data[offset]
        offset += 1
        if code >= len(ENVELOPE_VERDICTS):
            raise FrameError(f"unknown envelope verdict code {code}")
        verdict = ENVELOPE_VERDICTS[code]
    seq = None
    if flags & _ENV_HAS_SEQ:
        seq = int.from_bytes(bytes(data[offset : offset + 8]), "big")
        offset += 8
    payload_len = int.from_bytes(bytes(data[offset : offset + 4]), "big")
    offset += 4
    payload = bytes(data[offset : offset + payload_len])
    if len(payload) != payload_len:
        raise FrameError(
            f"envelope payload truncated: expected {payload_len}, got {len(payload)}"
        )
    frame = EthernetFrame(
        destination=destination,
        source=source,
        ethertype=ethertype,
        payload=payload,
        vlan=vlan,
    )
    return frame, {"when_ns": when_ns, "verdict": verdict, "seq": seq}


def packet_bytes_to_frame(data: bytes) -> EthernetFrame:
    """Rebuild an Ethernet frame from switchlet-produced ``pkt`` bytes."""
    if len(data) < 14:
        raise FrameError(f"packet bytes too short for an Ethernet header: {len(data)}")
    outer_type = int.from_bytes(bytes(data[12:14]), "big")
    vlan = None
    body_start = 14
    if outer_type == _VLAN_TPID:
        if len(data) < 18:
            raise FrameError(f"packet bytes too short for an 802.1Q header: {len(data)}")
        vlan = VlanTag.from_tci(int.from_bytes(bytes(data[14:16]), "big"))
        ethertype = int.from_bytes(bytes(data[16:18]), "big")
        body_start = 18
    else:
        ethertype = outer_type
    return EthernetFrame(
        destination=MacAddress(bytes(data[0:6])),
        source=MacAddress(bytes(data[6:12])),
        ethertype=ethertype,
        payload=bytes(data[body_start:]),
        vlan=vlan,
    )


@dataclass(frozen=True)
class Packet:
    """The packet record of Figure 4: ``{len; addr; pkt}`` plus the input port name.

    Attributes:
        len: length of ``pkt`` in bytes.
        addr: a :class:`~repro.core.safeunix.SockAddr` describing where the
            packet came from (interface name and source MAC).
        pkt: the raw frame bytes (header + payload, no FCS).
        iport: the name of the input port the packet arrived on.
    """

    len: int
    addr: SockAddr
    pkt: bytes
    iport: str


PacketHandler = Callable[[Packet], None]
TransmitCallback = Callable[[str, EthernetFrame], None]


class _InputBinding:
    """State for one bound input port (physical interface or address)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.queue: Deque[Packet] = deque()
        self.handler: Optional[PacketHandler] = None
        self.packets_delivered = 0

    def deliver(self, packet: Packet) -> None:
        self.packets_delivered += 1
        if self.handler is not None:
            self.handler(packet)
        else:
            self.queue.append(packet)


class IPort:
    """Opaque input-port handle returned to switchlets."""

    def __init__(self, binding: _InputBinding, kind: str) -> None:
        self._binding = binding
        self._kind = kind

    @property
    def name(self) -> str:
        """The bound interface name (or address string for address bindings)."""
        return self._binding.name

    def __repr__(self) -> str:
        return f"<iport {self._binding.name} ({self._kind})>"


class OPort:
    """Opaque output-port handle returned to switchlets."""

    def __init__(self, name: str) -> None:
        self._name = name

    @property
    def name(self) -> str:
        """The bound interface name."""
        return self._name

    def __repr__(self) -> str:
        return f"<oport {self._name}>"


class Unixnet:
    """The ``Unixnet`` module implementation for one active node.

    The owning :class:`~repro.core.node.ActiveNode` constructs one instance,
    registers its interfaces with :meth:`add_interface`, feeds received
    frames in with :meth:`deliver_frame`, and supplies a ``transmit``
    callback that puts frames on the wire (after charging the transmit-side
    kernel-crossing cost).
    """

    def __init__(
        self, node_name: str, transmit: TransmitCallback, trace=None
    ) -> None:
        self._node_name = node_name
        self._transmit = transmit
        #: Optional :class:`~repro.sim.trace.TraceRecorder`; the owning node
        #: passes its simulator's hub so demux misses show up in timelines.
        self._trace = trace
        self._interface_order: List[str] = []
        self._promiscuous_hook: Dict[str, Callable[[bool], None]] = {}
        self._interface_macs: Dict[str, MacAddress] = {}
        self._in_bindings: Dict[str, _InputBinding] = {}
        self._out_bindings: Dict[str, OPort] = {}
        self._addr_bindings: Dict[str, _InputBinding] = {}
        # Statistics (read by the node, not exported to switchlets)
        self.packets_delivered = 0
        self.packets_unclaimed = 0
        self.packets_sent = 0

    # ------------------------------------------------------------------
    # Node-side wiring (not exported to switchlets)
    # ------------------------------------------------------------------

    def add_interface(
        self,
        name: str,
        mac: MacAddress,
        set_promiscuous: Callable[[bool], None],
    ) -> None:
        """Register a physical interface by name."""
        if name in self._interface_order:
            raise AlreadyBound(f"interface {name!r} already registered")
        self._interface_order.append(name)
        self._interface_macs[name] = mac
        self._promiscuous_hook[name] = set_promiscuous

    def interface_names(self) -> list:
        """The registered interface names, in registration order."""
        return list(self._interface_order)

    def interface_mac(self, name: str) -> MacAddress:
        """The MAC address of a registered interface."""
        try:
            return self._interface_macs[name]
        except KeyError as exc:
            raise NoInterface(f"no interface named {name!r}") from exc

    def deliver_frame(self, interface: str, frame: EthernetFrame) -> Optional[Packet]:
        """Deliver a received frame to the appropriate binding.

        Address bindings take precedence over interface bindings, mirroring
        the demultiplexer behaviour the spanning-tree switchlet relies on.
        Returns the packet if some binding claimed it, else ``None``.
        """
        pkt = frame_to_packet_bytes(frame)
        packet = Packet(
            len=len(pkt),
            addr=SockAddr(interface=interface, mac=str(frame.source)),
            pkt=pkt,
            iport=interface,
        )
        addr_binding = self._addr_bindings.get(str(frame.destination))
        if addr_binding is not None:
            self.packets_delivered += 1
            addr_binding.deliver(packet)
            return packet
        in_binding = self._in_bindings.get(interface)
        if in_binding is not None:
            self.packets_delivered += 1
            in_binding.deliver(packet)
            return packet
        self.packets_unclaimed += 1
        trace = self._trace
        if trace is not None and trace.wants("unixnet.unclaimed"):
            trace.emit(
                self._node_name,
                "unixnet.unclaimed",
                (unclaimed_detail, interface, frame),
            )
        return None

    def reset(self) -> None:
        """Drop every binding (used when a node is reset between experiments)."""
        self._in_bindings.clear()
        self._out_bindings.clear()
        self._addr_bindings.clear()

    # ------------------------------------------------------------------
    # Input ports (exported)
    # ------------------------------------------------------------------

    def bind_in(self, interface: str) -> IPort:
        """Bind the named interface for input (first bind wins)."""
        if interface not in self._interface_order:
            raise NoInterface(f"no interface named {interface!r}")
        if interface in self._in_bindings:
            raise AlreadyBound(f"input port {interface!r} is already bound")
        binding = _InputBinding(interface)
        self._in_bindings[interface] = binding
        # The paper: "whenever an input port is bound, it is put into
        # promiscuous mode" — a transparent bridge must see everything.
        self._promiscuous_hook[interface](True)
        return IPort(binding, "interface")

    def bind_addr(self, address: str) -> IPort:
        """Bind a destination MAC address (e.g. the All-Bridges multicast group).

        Frames addressed to ``address`` on *any* interface are delivered to
        this binding instead of the per-interface binding.
        """
        key = str(MacAddress.from_string(address))
        if key in self._addr_bindings:
            raise AlreadyBound(f"address {key} is already bound")
        binding = _InputBinding(key)
        self._addr_bindings[key] = binding
        return IPort(binding, "address")

    def get_iport(self) -> IPort:
        """Bind the next interface that is not yet bound for input."""
        for interface in self._interface_order:
            if interface not in self._in_bindings:
                return self.bind_in(interface)
        raise NoInterface("no unbound input interface is available")

    def pkts_waiting_p_in(self, iport: IPort) -> bool:
        """Whether packets are queued on this input port (pull mode)."""
        return bool(iport._binding.queue)

    def get_next_pkt_in(self, iport: IPort) -> Packet:
        """Dequeue the next packet from this input port (pull mode).

        Raises:
            NoInterface: if no packet is waiting (the paper's reader thread
                would block; event-driven callers check
                :meth:`pkts_waiting_p_in` first or use a push handler).
        """
        if not iport._binding.queue:
            raise NoInterface(f"no packet waiting on {iport.name!r}")
        return iport._binding.queue.popleft()

    def set_handler_in(self, iport: IPort, handler: Optional[PacketHandler]) -> None:
        """Install (or clear) a push handler on a bound input port."""
        iport._binding.handler = handler

    def unbind_in(self, iport: IPort) -> None:
        """Release an input-port binding."""
        name = iport._binding.name
        if self._in_bindings.get(name) is iport._binding:
            del self._in_bindings[name]
            self._promiscuous_hook[name](False)

    def unbind_addr(self, iport: IPort) -> None:
        """Release an address binding."""
        name = iport._binding.name
        if self._addr_bindings.get(name) is iport._binding:
            del self._addr_bindings[name]

    # ------------------------------------------------------------------
    # Output ports (exported)
    # ------------------------------------------------------------------

    def bind_out(self, interface: str) -> OPort:
        """Bind the named interface for output (first bind wins)."""
        if interface not in self._interface_order:
            raise NoInterface(f"no interface named {interface!r}")
        if interface in self._out_bindings:
            raise AlreadyBound(f"output port {interface!r} is already bound")
        oport = OPort(interface)
        self._out_bindings[interface] = oport
        return oport

    def get_oport(self) -> OPort:
        """Bind the next interface that is not yet bound for output."""
        for interface in self._interface_order:
            if interface not in self._out_bindings:
                return self.bind_out(interface)
        raise NoInterface("no unbound output interface is available")

    def unbind_out(self, oport: OPort) -> None:
        """Release an output-port binding."""
        if self._out_bindings.get(oport.name) is oport:
            del self._out_bindings[oport.name]

    def ready_to_send_p_out(self, oport: OPort) -> bool:
        """Whether the output port can accept a frame (always true here)."""
        return oport.name in self._out_bindings

    def send_pkt_out(
        self,
        oport: OPort,
        data: bytes,
        offset: int,
        length: int,
        addr: Optional[SockAddr] = None,
    ) -> int:
        """Transmit ``data[offset:offset+length]`` on the bound output port.

        The byte string must be a complete Ethernet header plus payload (no
        FCS); returns the number of bytes accepted for transmission.  The
        ``addr`` argument is accepted for interface fidelity with Figure 4
        but is informational only — the frame's own header determines where
        it goes.
        """
        if self._out_bindings.get(oport.name) is not oport:
            raise NoInterface(f"output port {oport.name!r} is not bound")
        window = bytes(data[offset : offset + length])
        frame = packet_bytes_to_frame(window)
        self.packets_sent += 1
        self._transmit(oport.name, frame)
        return len(window)

    # ------------------------------------------------------------------
    # Generic and debugging functions (exported)
    # ------------------------------------------------------------------

    def iport_to_oport(self, iport: IPort) -> OPort:
        """Bind (or return) the output port for the same interface as ``iport``."""
        name = iport._binding.name
        existing = self._out_bindings.get(name)
        if existing is not None:
            return existing
        return self.bind_out(name)

    def debug_iport_to_string(self, iport: IPort) -> str:
        """Debugging aid: describe an input port."""
        return f"iport({iport.name}, queued={len(iport._binding.queue)})"

    def debug_oport_to_string(self, oport: OPort) -> str:
        """Debugging aid: describe an output port."""
        return f"oport({oport.name})"

    def debug_demux_num_devs(self) -> int:
        """Debugging aid: number of registered physical interfaces."""
        return len(self._interface_order)

    #: Names exported to switchlets when this object is thinned into ``Unixnet``.
    THINNED_EXPORTS = (
        "bind_in",
        "bind_addr",
        "get_iport",
        "pkts_waiting_p_in",
        "get_next_pkt_in",
        "set_handler_in",
        "unbind_in",
        "unbind_addr",
        "bind_out",
        "get_oport",
        "unbind_out",
        "ready_to_send_p_out",
        "send_pkt_out",
        "iport_to_oport",
        "interface_names",
        "interface_mac",
        "debug_iport_to_string",
        "debug_oport_to_string",
        "debug_demux_num_devs",
    )
