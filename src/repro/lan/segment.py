"""A shared broadcast LAN segment.

The segment models classic shared Ethernet: one transmission at a time, every
attached station sees every frame, and a frame occupies the wire for
``wire_length * 8 / bandwidth`` seconds plus a small propagation delay.
Stations that want to transmit while the medium is busy are queued in FIFO
order (an idealized, collision-free CSMA — adequate because the paper's
experiments are not collision-bound, they are bridge-CPU-bound).

**Receive demultiplexing.**  A station's NIC filters unicast frames for other
stations in hardware, so the segment does not visit it for them: a unicast
frame visits only the NICs whose MAC is its destination plus every
promiscuous and every down NIC (which counts the drop), in attach order,
through a lazily built per-segment index (:meth:`Segment._targets`).
Group-addressed frames visit every station.  A skipped NIC would have
emitted nothing and counted nothing, so outputs are unchanged.

**Inter-shard channel.**  Under the sharded fabric
(:mod:`repro.sim.fabric`) a segment may have stations placed on other shard
engines than its own; such a segment is a *cut segment* and cross-shard frame
handoff is the fabric's only coupling point.  The segment detects this
automatically from its interfaces' home engines (:meth:`attach` /
:meth:`detach` refresh the plan) and routes delivery through per-shard
delivery runs: one delivery event per contiguous run of same-shard receivers,
scheduled on the receiving shard at the same ``deliver_at`` the single engine
would use.  The handoff latency is bounded below by
:attr:`propagation_delay` — the fabric's conservative-synchronization
lookahead.  On a homogeneous segment (every station on the segment's own
engine — in particular, any unsharded run) the classic single-event delivery
path is taken unchanged.

**Relaxed mode.**  Under the fabric's relaxed sync (:mod:`repro.sim.relaxed`)
a cut segment becomes a *mailbox channel*: transmits are deferred to the
window barrier and replayed in canonical ``(time, shard, position)`` order
(:meth:`Segment._apply_relaxed_transmit`), and delivery runs are staged in
the sending shard's outbox instead of being pushed into other shards' rings
mid-window — that is what makes cross-shard handoff thread-safe without a
single lock on the frame path.  Shard-local segments additionally get an
*express lane* with two strengths (see :meth:`Segment._refresh_express` for
the eligibility rules):

* **inline** (:meth:`Segment._express_pump`) — every up receiver is inert or
  declared ``inline_safe``: the whole service → delivery → reply chain runs
  inline at exact strict-engine timestamps, skipping the event ring
  entirely;
* **deferred** (:meth:`Segment._drain_backlog`) — every up receiver is
  inert or declared ``segment_local`` (its reactions ride a CPU queue or
  timer, never the wire synchronously): wire *service* is batched at
  transmit time — one clock fetch and one arithmetic chain per backlog
  instead of one service event per frame — while deliveries stay on the
  event ring at their exact strict-engine timestamps, so handlers still
  execute in global shard time order.

The same :meth:`Segment._drain_backlog` serves a relaxed cut segment's mailed
transmits at the window barrier, parking one delivery leg per receiver run.
Everything else — the single engine, strict shards, fault-model segments —
serves one frame per service event: :meth:`Segment._serve_frame_local` on a
shard-local segment, :meth:`Segment._serve_frame_cut` on a cut one.

**Fault hooks.**  The fault subsystem (:mod:`repro.faults`) drives three
dynamic knobs, all mutated only from driver/control context — the single
engine's queue, strict shard 0, or relaxed control barriers — so mid-window
shard threads only ever *read* them:

* :meth:`set_link` — whole-segment failure (cable cut): a downed segment
  drops at the sender (no carrier), drains its transmit queue, and vetoes
  the express lane; frames whose delivery event was already on the wire at
  the instant of failure still arrive (the failure happens "behind" them).
* :meth:`set_fault_model` — a seeded loss/corruption model consulted once
  per serviced frame; judged frames occupy the wire exactly as delivered
  ones (``_busy_until`` chains are unchanged) but are counted in
  :attr:`frames_lost` / :attr:`frames_corrupted` instead of delivered.
  An active model vetoes the express lane — eligibility is re-evaluated on
  every model change, exactly as on every port up/down.
* :meth:`set_degrade` — scales bandwidth down and/or adds propagation delay
  (never below the compiled values, so the fabric's cut-segment lookahead
  stays conservative).
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import TYPE_CHECKING, Deque, List, Optional, Tuple

from repro.ethernet.frame import EthernetFrame
from repro.exceptions import TopologyError
from repro.sim.clock import NANOSECONDS_PER_SECOND
from repro.sim.engine import Simulator
from repro.sim.relaxed import active_shard
from repro.sim.trace import drop_detail, sender_frame_detail

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checking only
    from repro.lan.nic import NetworkInterface

#: 100 Mb/s, the LAN speed used throughout the paper's evaluation.
DEFAULT_BANDWIDTH_BPS = 100_000_000

#: A few microseconds of propagation/repeater latency per segment.
DEFAULT_PROPAGATION_DELAY = 2e-6

#: Express-lane modes (``Segment._express``).  Kept as ints so the hot-path
#: gate stays one truthiness check.
EXPRESS_OFF = 0
EXPRESS_INLINE = 1
EXPRESS_DEFERRED = 2

_EXPRESS_MODE_NAMES = ("off", "inline", "deferred")

#: In-flight entry states (``entry[4]``) of a batched drain: killed by
#: set_link, delivery pending, or home leg already run.  Run legs deliver on
#: any truthy state; only set_link, at a barrier, writes ``_KILLED``.
_KILLED = 0
_LIVE = 1
_DELIVERED = 2


class Segment:
    """A shared, half-duplex broadcast Ethernet segment.

    Args:
        sim: the owning simulator.
        name: segment name used in traces (e.g. ``"lan1"``).
        bandwidth_bps: wire speed in bits per second.
        propagation_delay: one-way propagation delay in seconds.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
        propagation_delay: float = DEFAULT_PROPAGATION_DELAY,
    ) -> None:
        if bandwidth_bps <= 0:
            raise TopologyError("segment bandwidth must be positive")
        if propagation_delay < 0:
            raise TopologyError("propagation delay cannot be negative")
        self.sim = sim
        self.name = name
        self.bandwidth_bps = float(bandwidth_bps)
        self.propagation_delay = float(propagation_delay)
        # Register with the owning fabric (when sharded) so the process
        # backend can rebind serialized cross-shard mail by segment name.
        registry = getattr(sim, "_segments", None)
        if registry is None:
            registry = getattr(getattr(sim, "fabric", None), "_segments", None)
        if registry is not None:
            registry[name] = self
        # The trace hub never changes over the segment's lifetime.
        self._trace = sim.trace
        # Delivery/service events are never cancelled: cache the engine's
        # fire-and-forget scheduler.
        self._schedule = sim.schedule_fire
        self._interfaces: list["NetworkInterface"] = []
        # Attach-order snapshot iterated on delivery; rebuilding it on
        # attach/detach (rare) keeps the per-frame path copy-free.
        self._receivers: Tuple["NetworkInterface", ...] = ()
        # Unicast receive index (see _targets): destination octets -> the
        # attach-order receivers a unicast frame can touch, or None while
        # stale; _unicast_other is the promiscuous-or-down subset, which is
        # the whole answer for any destination the index does not key.
        self._unicast: Optional[dict] = None
        self._unicast_other: Tuple["NetworkInterface", ...] = ()
        self._busy_until = 0.0
        self._pending: Deque[Tuple["NetworkInterface", EthernetFrame]] = deque()
        self._in_service = False
        # Inter-shard delivery plan: None while every attached station lives
        # on this segment's own engine (the common, unsharded case); else a
        # list of (engine, [interfaces]) runs in attach order.
        self._delivery_runs: Optional[List[tuple]] = None
        # Express-lane eligibility (relaxed mode only): EXPRESS_INLINE runs
        # the whole causal service -> delivery -> reply chain inline when the
        # segment is shard-local and every up receiver is inert or declared
        # inline-safe; EXPRESS_DEFERRED batches wire service at transmit time
        # (deliveries stay on the ring) when every up receiver is inert or
        # declared segment-local.  Refreshed on attach/detach/set_up/
        # set_handler and every fault hook; see _express_pump and
        # _drain_backlog for the contracts.
        self._express = EXPRESS_OFF
        # Batched-drain bookkeeping: frames whose service was batched but
        # whose delivery has not fired yet.  Entries are
        # [pop_ns, prior_busy, sender, frame, state, cut] lists shared with
        # the parked delivery legs; set_link(False) kills the not-yet-on-
        # the-wire suffix and rolls the busy chain back (classic drop
        # semantics without per-frame service events).
        self._express_inflight: Deque[list] = deque()
        # Fault state (repro.faults): link status, the loss/corruption model
        # consulted per serviced frame, and the nominal wire characteristics
        # set_degrade() scales from.  Only mutated from driver/control
        # context; see the module docstring's fault-hooks contract.
        self._link_up = True
        self._fault_model = None
        self._nominal_bandwidth_bps = self.bandwidth_bps
        self._nominal_propagation_delay = self.propagation_delay
        # Statistics
        self.frames_carried = 0
        self.bytes_carried = 0
        self.cross_shard_frames = 0
        self.frames_lost = 0
        self.frames_corrupted = 0

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------

    @property
    def interfaces(self) -> tuple:
        """The NICs currently attached to this segment."""
        return tuple(self._interfaces)

    def attach(self, interface: "NetworkInterface") -> None:
        """Attach a NIC.  A NIC may be attached to at most one segment."""
        if interface in self._interfaces:
            raise TopologyError(
                f"interface {interface.name} is already attached to {self.name}"
            )
        self._interfaces.append(interface)
        self._receivers = tuple(self._interfaces)
        self._refresh_delivery_runs()

    def detach(self, interface: "NetworkInterface") -> None:
        """Detach a NIC (frames already queued from it still complete)."""
        if interface not in self._interfaces:
            raise TopologyError(
                f"interface {interface.name} is not attached to {self.name}"
            )
        self._interfaces.remove(interface)
        self._receivers = tuple(self._interfaces)
        self._refresh_delivery_runs()

    def _refresh_delivery_runs(self) -> None:
        """Recompute the inter-shard delivery plan from interface residency.

        Attach order is preserved: contiguous same-engine receivers share one
        delivery event, and run order equals attach order, so the sharded
        receive order (and every trace record it produces) is exactly the
        single engine's.
        """
        home = self.sim
        if all(interface.home_sim is home for interface in self._interfaces):
            self._delivery_runs = None
            self._refresh_express()
            return
        runs: List[tuple] = []
        current_sim = None
        current_run: Optional[list] = None
        for interface in self._interfaces:
            engine = interface.home_sim
            if engine is not current_sim:
                current_run = []
                runs.append((engine, current_run))
                current_sim = engine
            current_run.append(interface)
        self._delivery_runs = runs
        self._refresh_express()

    def _refresh_express(self) -> None:
        """Recompute express-lane eligibility (the relaxed-mode fast path).

        Two lane strengths, decided per refresh (strongest first):

        * **inline** (:data:`EXPRESS_INLINE`): the whole causal chain is
          provably home-driven — every administratively-up interface either
          has no handler (a pure counter/trace endpoint) or carries one its
          owner declared ``inline_safe`` via
          :meth:`NetworkInterface.set_handler`, and every interface homed on
          another shard is down.  Down interfaces never run handlers or
          send, so they do not veto — a downed remote bridge port cannot
          inject cross-shard traffic, and its drop counting is routed
          through the outbox (thread-safely, on its own shard).  This is
          exactly what lets the wire-speed sweeps express-run every segment
          of the ring once the bridge ports are down, cut segments included.

        * **deferred** (:data:`EXPRESS_DEFERRED`): the segment is strictly
          shard-local (no delivery runs at all) and every up interface is
          inert, ``inline_safe`` or ``segment_local`` — its handlers never
          transmit onto *other* segments synchronously from delivery
          context; reactions ride CPU queues or timers.  The drain never
          executes handlers inline (deliveries stay on the ring at exact
          strict timestamps), so this covers every catalog protocol whose
          forwarding path rides a :class:`~repro.costs.cpu.CpuQueue`:
          learning/static/VLAN bridges, repeaters, hosts and their ping
          responders — the control-heavy topologies (``ring/failover``) the
          inline rule used to veto.

        Fault state vetoes both lanes: a downed link never delivers and an
        active loss model draws from a stochastic stream at service order
        and service *time*, which the batched drain would stamp differently.
        Every fault mutation (:meth:`set_link`, :meth:`set_fault_model`) and
        every port up/down re-runs this refresh, which is what makes mid-run
        fall-back and re-expression deterministic.

        Every hook that can change which receivers a unicast frame reaches
        (attach/detach, port up/down, promiscuity) comes through here, so
        this is also where the unicast receive index is invalidated (see
        :meth:`_targets`).
        """
        self._unicast = None
        model = self._fault_model
        if not self._link_up or (model is not None and model.active):
            self._express = EXPRESS_OFF
            return
        home = self.sim
        inline_ok = True
        defer_ok = self._delivery_runs is None
        for interface in self._interfaces:
            up = interface.up
            if interface.home_sim is not home:
                if up:
                    inline_ok = False
                    defer_ok = False
                    break
                continue
            if not up or interface._handler is None:
                continue
            if not interface._inline_safe:
                inline_ok = False
                if not interface._segment_local:
                    defer_ok = False
                    break
        if inline_ok:
            self._express = EXPRESS_INLINE
        elif defer_ok:
            self._express = EXPRESS_DEFERRED
        else:
            self._express = EXPRESS_OFF

    @property
    def express_mode(self) -> str:
        """Current express-lane eligibility: ``off``, ``inline`` or ``deferred``."""
        return _EXPRESS_MODE_NAMES[self._express]

    # ------------------------------------------------------------------
    # Fault hooks (repro.faults) — driver/control context only
    # ------------------------------------------------------------------

    @property
    def link_up(self) -> bool:
        """Whether the segment's medium is currently operational."""
        return self._link_up

    def set_link(self, up: bool) -> None:
        """Fail or restore the whole segment (cable cut / splice).

        Failing the link drops everything still queued for the medium at the
        instant of failure (counted in :attr:`frames_lost`, one
        ``segment.drop`` record each) and makes every later transmit drop at
        the sender until the link is restored.  Frames whose delivery event
        already left the wire keep arriving — the in-flight window is
        sub-propagation-delay and the cut happens behind them.

        Must run in driver/control context (fault timelines schedule through
        the simulator facade, which guarantees it); mid-window shard code
        only reads the flag.
        """
        up = bool(up)
        if up == self._link_up:
            return
        self._link_up = up
        trace = self._trace
        if trace.wants("segment.link"):
            trace.emit(self.name, "segment.link", {"up": up})
        if not up:
            pending = self._pending
            while pending:
                sender, frame = pending.popleft()
                self._count_drop(sender, frame, "link-down")
            inflight = self._express_inflight
            if inflight:
                # Drained frames were serviced (batched) ahead of time; the
                # ones whose classic service *pop* would not have
                # happened yet (pop_ns >= now: faults precede same-instant
                # traffic in every mode) are exactly the frames the classic
                # path would still hold queued — kill their parked
                # deliveries, roll the busy chain back to the first killed
                # frame and count the drops in FIFO order.
                now_ns = self.sim.clock._now_ns
                killed: List[list] = []
                while inflight and inflight[-1][0] >= now_ns:
                    killed.append(inflight.pop())
                if killed:
                    killed.reverse()
                    self._busy_until = killed[0][1]
                    for entry in killed:
                        entry[4] = _KILLED
                        self.frames_carried -= 1
                        self.bytes_carried -= entry[3].wire_length
                        if entry[5]:
                            # Cut entry: its serve also counted a cross-shard
                            # frame that now never crosses.
                            self.cross_shard_frames -= 1
                        self._count_drop(entry[2], entry[3], "link-down")
        self._refresh_express()

    def set_fault_model(self, model) -> None:
        """Attach (or with ``None`` detach) a per-frame loss/corruption model.

        The model is duck-typed — ``active`` plus ``judge(frame)`` returning
        ``None``/``"loss"``/``"corrupt"`` — and is consulted exactly once per
        serviced frame, in segment service order (see
        :class:`repro.faults.models.FrameLossModel` for the determinism
        argument).  Attaching an active model revokes the express lane;
        detaching re-evaluates eligibility.
        """
        self._fault_model = model
        trace = self._trace
        if trace.wants("segment.fault_model"):
            trace.emit(
                self.name,
                "segment.fault_model",
                {"model": repr(model) if model is not None else "none"},
            )
        self._refresh_express()

    def set_degrade(
        self, bandwidth_scale: float = 1.0, extra_delay: float = 0.0
    ) -> None:
        """Degrade the wire: scale bandwidth down, add propagation delay.

        Both knobs move relative to the segment's *nominal* (construction
        time) characteristics, so repeated calls do not compound and the
        neutral arguments restore the segment exactly.  Bandwidth can only
        shrink and delay only grow: the partitioner derived the fabric's
        conservative lookahead from the nominal propagation delays, and a
        shorter delay on a cut segment would break that bound.
        """
        if not 0.0 < bandwidth_scale <= 1.0:
            raise TopologyError(
                f"degrade bandwidth_scale {bandwidth_scale} outside (0, 1]"
            )
        if extra_delay < 0:
            raise TopologyError(f"degrade extra_delay {extra_delay} is negative")
        self.bandwidth_bps = self._nominal_bandwidth_bps * bandwidth_scale
        self.propagation_delay = self._nominal_propagation_delay + extra_delay
        trace = self._trace
        if trace.wants("segment.degrade"):
            trace.emit(
                self.name,
                "segment.degrade",
                {"bandwidth_scale": bandwidth_scale, "extra_delay": extra_delay},
            )

    def _emit_drop(self, trace, sender: "NetworkInterface",
                   frame: EthernetFrame, reason: str) -> None:
        """Emit one ``segment.drop`` record onto ``trace`` (no counting)."""
        if trace.wants("segment.drop"):
            trace.emit(
                self.name,
                "segment.drop",
                (drop_detail, sender, reason, frame),
            )

    def _count_drop(self, sender: "NetworkInterface", frame: EthernetFrame,
                    reason: str) -> None:
        """Count one lost frame and emit its ``segment.drop`` record (home stream)."""
        self.frames_lost += 1
        self._emit_drop(self._trace, sender, frame, reason)

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------

    def serialization_delay(self, frame: EthernetFrame) -> float:
        """Time the frame occupies the wire, in seconds."""
        return frame.wire_length * 8.0 / self.bandwidth_bps

    def transmit(self, sender: "NetworkInterface", frame: EthernetFrame) -> None:
        """Queue ``frame`` from ``sender`` for transmission on this segment.

        Delivery to every other attached NIC happens after the medium becomes
        free, the frame serializes, and the propagation delay elapses.
        """
        if sender.segment is not self:
            raise TopologyError(
                f"interface {sender.name} transmitted on {self.name} "
                "without being attached"
            )
        if not self._link_up:
            # No carrier: the frame is lost at the sender.  The drop record
            # belongs to the sending context's stream (mirroring the enqueue
            # record below); on a cut segment under relaxed sync the counter
            # increment is routed through the outbox — another shard's thread
            # must not mutate this segment mid-window.
            trace = self._trace
            if self._delivery_runs is not None:
                sim = self.sim
                if sim.relaxed:
                    caller = active_shard()
                    if caller is not None:
                        self._emit_drop(caller.trace, sender, frame, "link-down")
                        caller.outbox.append(
                            ("drop", caller.clock._now_ns, self)
                        )
                        return
                else:
                    active = sim.fabric._active
                    if active is not None:
                        trace = active.trace
            self.frames_lost += 1
            self._emit_drop(trace, sender, frame, "link-down")
            return
        trace = self._trace
        if self._delivery_runs is not None:
            # Cut segment: the enqueue record belongs to the *sending*
            # shard's stream — the transmit is the sender's action at the
            # sender's time.  (The emission moment is unchanged, so strict
            # runs stay bit-identical; under relaxed sync it is what lets
            # the record carry the exact send-time stamp even though the
            # segment state update is deferred to the window barrier.)
            sim = self.sim
            if sim.relaxed and not self._express:
                caller = active_shard()
                if caller is not None:
                    # Inside a relaxed window this segment's state must not
                    # be touched (another shard's thread may own it, and
                    # strict FIFO order across shards is only defined at the
                    # barrier).  Defer the transmit — home-shard senders
                    # included, so same-nanosecond transmits from different
                    # shards are FIFO'd by the one canonical mailbox merge.
                    # (Express-eligible cut segments are exempt: their only
                    # live senders are home-shard stations, so the home
                    # thread owns the state outright.)
                    trace = caller.trace
                    if trace.wants("segment.enqueue"):
                        trace.emit(
                            self.name,
                            "segment.enqueue",
                            (sender_frame_detail, sender, frame),
                        )
                    caller.outbox.append(
                        ("tx", caller.clock._now_ns, self, sender, frame)
                    )
                    return
            else:
                active = sim.fabric._active
                if active is not None:
                    trace = active.trace
        self._pending.append((sender, frame))
        if trace.wants("segment.enqueue"):
            trace.emit(
                self.name,
                "segment.enqueue",
                (sender_frame_detail, sender, frame),
            )
        if not self._in_service:
            self._service_next()

    def _apply_relaxed_transmit(
        self, when_ns: int, sender: "NetworkInterface", frame: EthernetFrame
    ) -> None:
        """Replay a mailboxed transmit at its recorded time (window barrier).

        Runs on the coordinator thread between windows: the home shard's
        clock is set to the transmit time so the service arithmetic and
        everything scheduled downstream carry exactly the timestamps the
        strict engine produces.  (The enqueue record was already emitted at
        send time, on the sending shard's stream.)
        """
        clock = self.sim.clock
        clock._now_ns = when_ns
        clock._now_s = when_ns / NANOSECONDS_PER_SECOND
        self._pending.append((sender, frame))
        if not self._in_service:
            self._service_next()

    def _service_next(self) -> None:
        if not self._pending:
            self._in_service = False
            return
        if not self._link_up:
            # The medium died while frames were queued: everything still
            # waiting is lost.  (set_link drains the queue at the instant of
            # failure; this path catches frames replayed into a dead segment
            # by a pre-failure service event.)
            pending = self._pending
            while pending:
                sender, frame = pending.popleft()
                self._count_drop(sender, frame, "link-down")
            self._in_service = False
            return
        sim = self.sim
        express = self._express
        if express and sim.relaxed and active_shard() is not None:
            if express == EXPRESS_INLINE:
                # Relaxed inline express lane: run the segment's whole causal
                # chain inline instead of round-tripping every step through
                # the ring.
                self._express_pump(sim.clock._now_ns)
            else:
                # Deferred express lane: batch the wire service now, leave
                # deliveries on the ring at their exact strict timestamps.
                self._drain_backlog()
            return
        self._in_service = True
        if self._delivery_runs is None:
            self._serve_frame_local()
        else:
            self._serve_frame_cut()

    def _serve_frame_local(self) -> None:
        """Serve one frame on a shard-local segment (one service event each)."""
        sender, frame = self._pending.popleft()
        now = self.sim.clock._now_s
        busy = self._busy_until
        start = now if now >= busy else busy
        finish = start + frame.wire_length * 8.0 / self.bandwidth_bps
        self._busy_until = finish
        self.frames_carried += 1
        self.bytes_carried += frame.wire_length
        model = self._fault_model
        if model is not None and model.active and self._judged_away(
            model, sender, frame
        ):
            self._schedule(finish, self._service_next)
            return
        self._schedule(
            finish + self.propagation_delay,
            partial(self._deliver, sender, frame),
        )
        self._schedule(finish, self._service_next)

    def _judged_away(self, model, sender: "NetworkInterface",
                     frame: EthernetFrame) -> bool:
        """Consult the active fault model for one serviced frame.

        A judged frame occupies the wire exactly as a delivered one (the
        caller already advanced ``_busy_until``) but never reaches a
        receiver: lost outright, or corrupted and discarded by every NIC's
        FCS check.  Returns whether the frame was judged away.
        """
        verdict = model.judge(frame)
        if verdict is None:
            return False
        if verdict == "corrupt":
            self.frames_corrupted += 1
            self._emit_drop(self._trace, sender, frame, "corrupt")
        else:
            self._count_drop(sender, frame, "loss")
        return True

    def _serve_frame_cut(self) -> None:
        """Serve one frame on a cut segment (inter-shard delivery runs)."""
        sim = self.sim
        model = self._fault_model
        judged = model is not None and model.active
        if sim.relaxed and not judged and active_shard() is None:
            # Barrier context (mailed transmit replay) on a fault-free cut
            # segment: batch the wire service right now, exactly as the
            # deferred express lane does, instead of round-tripping a
            # service event per frame through the home ring.
            self._drain_backlog()
            return
        sender, frame = self._pending.popleft()
        now = sim.clock._now_s
        busy = self._busy_until
        start = now if now >= busy else busy
        finish = start + frame.wire_length * 8.0 / self.bandwidth_bps
        self._busy_until = finish
        deliver_at = finish + self.propagation_delay
        self.frames_carried += 1
        # Wire occupancy, consistent with serialization_delay(): the frame
        # plus preamble/SFD/inter-frame gap, not just header+payload+FCS.
        self.bytes_carried += frame.wire_length
        if judged and self._judged_away(model, sender, frame):
            self._schedule_cut_completion(sim, finish)
            return

        # One delivery event per contiguous same-shard run of receivers,
        # scheduled consecutively (so their shared-counter sequence numbers
        # preserve attach order) on each receiving shard.
        runs = self._delivery_runs
        self.cross_shard_frames += 1
        if sim.relaxed:
            # Relaxed: the segment.deliver record must be stamped by this
            # segment's *home* clock at the delivery time, so it becomes its
            # own home-shard event instead of piggybacking on the first run
            # (whose shard sits at a different private time).  Inside a
            # window everything is staged in the caller's outbox; at a
            # barrier (transmit replay) the rings are safe to push directly.
            deliver_ns = round(deliver_at * NANOSECONDS_PER_SECOND)
            caller = active_shard()
            if caller is not None:
                # A cut segment's service always runs on its home shard, so
                # home-bound work (the deliver record and home runs) can push
                # straight onto the caller's own ring — keeping its bucket
                # position identical to the strict engine's — while runs for
                # other shards stage in the outbox.
                home_push = sim._queue.push_fire
                outbox = caller.outbox
                home_push(deliver_ns, partial(self._emit_deliver, sender, frame))
                for engine, run in runs:
                    deliver_run = partial(
                        self._deliver_run, sender, frame, run, False
                    )
                    if engine is sim:
                        home_push(deliver_ns, deliver_run)
                    else:
                        outbox.append(("push", deliver_ns, engine, deliver_run))
            else:
                sim._relaxed_push_fire(
                    deliver_ns, partial(self._emit_deliver, sender, frame)
                )
                for engine, run in runs:
                    engine._relaxed_push_fire(
                        deliver_ns,
                        partial(self._deliver_run, sender, frame, run, False),
                    )
        else:
            first = True
            for engine, run in runs:
                engine.schedule_fire(
                    deliver_at,
                    partial(self._deliver_run, sender, frame, run, first),
                )
                first = False
        self._schedule_cut_completion(sim, finish)

    def _schedule_cut_completion(self, sim, finish: float) -> None:
        """Schedule the service-completion event for a cut-segment serve.

        An in-window serve keeps the completion on the home ring, exactly as
        before.  A barrier-context serve under relaxed sync — a mailed
        transmit replay, or a prior barrier completion firing — must put it
        on the *control ring* instead: barrier work is replicated in every
        engine replica (the process backend runs one per worker plus the
        parent), so cut-segment service state only stays in lockstep if the
        continuation also fires at a replicated barrier.  A home-ring
        completion fires in the owner's window alone; every other replica
        then keeps ``_in_service`` latched and its fault-model RNG cursor
        stale, and the next mailed frame it replays is misserved — appended
        instead of served, or judged with the wrong draw — which corrupts
        the delivery-run events it pushes onto its own live rings.
        """
        if sim.relaxed and active_shard() is None:
            sim.fabric._control.push_fire(
                round(finish * NANOSECONDS_PER_SECOND), self._service_next
            )
            return
        self._schedule(finish, self._service_next)

    def _deliver_cut(self, sender: "NetworkInterface", frame: EthernetFrame) -> None:
        """Deliver on an express-eligible cut segment at the current time.

        Every remote interface is down (the express precondition), so home
        receivers are delivered inline while the remote runs — pure drop
        counting — execute on their own shards: staged via the outbox inside
        a window, or scheduled directly from barrier/strict contexts (a
        parked delivery can fire after a mode switch).
        """
        runs = self._delivery_runs
        if runs is None:
            # Retopologized since the frame was scheduled: all-home now.
            self._deliver(sender, frame)
            return
        shard = self.sim
        caller = active_shard() if shard.relaxed else None
        when_ns = shard.clock._now_ns
        self._emit_deliver(sender, frame)
        for engine, run in runs:
            if engine is shard:
                for interface in run:
                    if interface is sender or interface.segment is not self:
                        continue
                    interface.deliver(frame)
            else:
                deliver_run = partial(self._deliver_run, sender, frame, run, False)
                if caller is not None:
                    caller.outbox.append(("push", when_ns, engine, deliver_run))
                else:
                    engine.schedule_fire(shard.clock._now_s, deliver_run)

    def _emit_deliver(self, sender: "NetworkInterface", frame: EthernetFrame) -> None:
        """Emit the segment.deliver record (relaxed cut-segment delivery)."""
        trace = self._trace
        if trace.wants("segment.deliver"):
            trace.emit(
                self.name,
                "segment.deliver",
                (sender_frame_detail, sender, frame),
            )

    def _drain_backlog(self) -> None:
        """Batch-service the whole transmit backlog (no service events).

        Wire *service* is pure arithmetic — pop, advance the ``_busy_until``
        chain, schedule the delivery — so nothing forces it to wait for its
        own service event.  This drain services every queued frame in one
        run (one clock fetch, one busy-chain walk per batch) and parks each
        delivery as a fire-and-forget ring event at the exact nanosecond the
        classic path would.  It serves two callers:

        * the deferred express lane, in-window on a shard-local segment:
          one parked leg per frame, which delivers to every receiver.
          Handlers therefore still run in shard time order with every other
          event (CPU completions, timers) — unlike the inline pump, no
          handler ever executes early — which is why the eligibility bar is
          only "reactions never escape the segment synchronously";
        * a relaxed cut segment's mailed transmits, in barrier context
          (:meth:`_serve_frame_cut`): a cut segment's transmits arrive
          *only* through the mail barrier, so the per-frame completion
          event would buy nothing but ring traffic.  The home leg emits the
          ``segment.deliver`` record and one leg per receiver run is parked
          on its receiving shard.  Callers fall back to per-frame service
          while a fault model is active, keeping the ``judge()`` draw order
          identical to strict.

        Service-start times replicate the classic chain bit-for-bit: a frame
        that would have waited for a service event at ``round(busy * ns)``
        gets exactly that quantized start (see the ``pop_ns`` branch), so
        ``_busy_until`` chains, delivery timestamps and every record match
        the strict engine.

        Each batched frame leaves an in-flight entry
        ``[pop_threshold_ns, prior_busy, sender, frame, state, cut]`` shared
        with its parked legs: :meth:`set_link` uses the threshold to kill
        exactly the frames the classic path would still hold queued at the
        instant of failure (their service pop would fire at or after the
        fault, which precedes same-instant traffic), rolling the busy chain
        and the carried counters back (plus the cross-shard counter when
        ``cut``).  A frame popped directly at drain time stores ``now - 1``
        so a same-instant failure — which by the fault-precedence contract
        ran *before* the transmit — never kills it.  Batch boundaries fall
        on every fault/port/model transition because each of those re-runs
        :meth:`_refresh_express` and drops the segment off the lane before
        the next transmit.
        """
        self._in_service = False
        sim = self.sim
        clock = sim.clock
        push = sim._relaxed_push_fire
        pending = self._pending
        inflight = self._express_inflight
        runs = self._delivery_runs
        cut = runs is not None
        bandwidth = self.bandwidth_bps
        prop = self.propagation_delay
        busy = self._busy_until
        now = clock._now_s
        now_ns = clock._now_ns
        carried = 0
        carried_bytes = 0
        while pending:
            sender, frame = pending.popleft()
            if now >= busy:
                start = now
                pop_ns = now_ns - 1
            else:
                pop_ns = round(busy * NANOSECONDS_PER_SECOND)
                quantized = pop_ns / NANOSECONDS_PER_SECOND
                start = quantized if quantized >= busy else busy
            finish = start + frame.wire_length * 8.0 / bandwidth
            entry = [pop_ns, busy, sender, frame, _LIVE, cut]
            busy = finish
            carried += 1
            carried_bytes += frame.wire_length
            inflight.append(entry)
            deliver_ns = round((finish + prop) * NANOSECONDS_PER_SECOND)
            push(deliver_ns, partial(self._deliver_parked, entry, None))
            if cut:
                for engine, run in runs:
                    engine._relaxed_push_fire(
                        deliver_ns, partial(self._deliver_parked, entry, run)
                    )
        self._busy_until = busy
        self.frames_carried += carried
        self.bytes_carried += carried_bytes
        if cut:
            self.cross_shard_frames += carried

    def _deliver_parked(self, entry: list, run) -> None:
        """Fire one parked delivery leg of a drained frame at its ring time.

        ``run is None`` is the home leg: it retires the entry, prunes
        delivered entries off the head of the in-flight window (killed ones
        were already popped by :meth:`set_link`; the home ring serializes
        this against its barriers) and then delivers to every receiver — or,
        for a cut entry, only emits the ``segment.deliver`` record.  Run
        legs execute on their receiving shards and only test the state for
        truth, which turns false exclusively at barriers — no cross-thread
        race.
        """
        state = entry[4]
        if run is not None:
            if state:
                self._deliver_run(entry[2], entry[3], run, False)
            return
        if not state:
            return
        entry[4] = _DELIVERED
        inflight = self._express_inflight
        while inflight and inflight[0][4] == _DELIVERED:
            inflight.popleft()
        if entry[5]:
            self._emit_deliver(entry[2], entry[3])
        else:
            self._deliver(entry[2], entry[3])

    def _express_pump(self, s_ns: int) -> None:
        """Drain this segment's service loop inline (relaxed express lane).

        Fuses every service -> delivery -> (inline-safe handler reply) step
        of the causal chain into one loop, advancing the shard's private
        clock to each step's exact strict-engine timestamp instead of paying
        a queue round-trip per event.  This is only sound under the relaxed
        canonical-merge contract: the emitted records interleave with other
        segments' streams out of execution order, and the canonical
        ``(time, shard, shard_seq)`` merge re-sorts them.

        Arithmetic mirrors :meth:`_service_next` bit-for-bit: service times
        are the quantized event times the strict engine would fire at, so
        ``_busy_until`` chains, delivery timestamps and every record are
        identical.  On leaving (queue drained or run horizon crossed) a real
        service event is left behind at the next service time — exactly the
        event the strict engine would have pending — so mid-run cutoffs,
        later transmits and mode switches resume seamlessly.
        """
        self._in_service = True
        shard = self.sim
        clock = shard.clock
        entry_ns = clock._now_ns
        entry_s = clock._now_s
        until_ns = shard._until_ns
        queue = shard._queue
        pending = self._pending
        bandwidth = self.bandwidth_bps
        prop = self.propagation_delay
        runs = self._delivery_runs
        deliver = self._deliver
        targets = self._targets
        # Batch-hoisted trace gate: one wants() check per pump run instead of
        # one per frame (the gate is run configuration, immutable mid-run).
        trace = self._trace
        deliver_wanted = trace.wants("segment.deliver")
        name = self.name
        # Frames already queued at pump entry were transmitted at or before
        # s_ns; frames appended by the inline deliveries below arrive at
        # their delivery instant, and — exactly as under the strict engine,
        # where an idle medium starts serving at the transmit call — must
        # not be served before they exist.
        backlog = len(pending)
        arrivals: Deque[int] = deque()
        while pending and s_ns <= until_ns:
            if backlog:
                backlog -= 1
            else:
                arrival_ns = arrivals.popleft()
                if arrival_ns > s_ns:
                    s_ns = arrival_ns
            sender, frame = pending.popleft()
            now = s_ns / NANOSECONDS_PER_SECOND
            busy = self._busy_until
            start = now if now >= busy else busy
            finish = start + frame.wire_length * 8.0 / bandwidth
            self._busy_until = finish
            deliver_at = finish + prop
            self.frames_carried += 1
            self.bytes_carried += frame.wire_length
            if runs is not None:
                self.cross_shard_frames += 1
            deliver_ns = round(deliver_at * NANOSECONDS_PER_SECOND)
            if deliver_ns > until_ns:
                # Past the run horizon: park the delivery as a real event,
                # as the strict engine would.  A cut segment's parked
                # delivery keeps the per-shard run split (the plain path
                # would touch remote NICs from this shard).
                parked = deliver if runs is None else self._deliver_cut
                queue.push_fire(deliver_ns, partial(parked, sender, frame))
            else:
                clock._now_ns = deliver_ns
                clock._now_s = deliver_ns / NANOSECONDS_PER_SECOND
                if deliver_ns > shard.cursor_ns:
                    shard.cursor_ns = deliver_ns
                before = len(pending)
                if runs is None:
                    # Inlined _deliver with the batch-hoisted gate: the
                    # record and receiver walk are identical, minus one
                    # wants() and one call frame per frame.
                    if deliver_wanted:
                        trace.emit(
                            name,
                            "segment.deliver",
                            (sender_frame_detail, sender, frame),
                        )
                    for interface in targets(frame):
                        if interface is sender:
                            continue
                        interface.deliver(frame)
                else:
                    self._deliver_cut(sender, frame)
                for _ in range(len(pending) - before):
                    arrivals.append(deliver_ns)
            s_ns = round(finish * NANOSECONDS_PER_SECOND)
        queue.push_fire(s_ns, self._service_next)
        clock._now_ns = entry_ns
        clock._now_s = entry_s

    def _deliver(self, sender: "NetworkInterface", frame: EthernetFrame) -> None:
        trace = self._trace
        if trace.wants("segment.deliver"):
            trace.emit(
                self.name,
                "segment.deliver",
                (sender_frame_detail, sender, frame),
            )
        # The target tuple is a stable snapshot: attach/detach during the
        # loop rebuild it without disturbing this delivery.
        for interface in self._targets(frame):
            if interface is sender:
                continue
            interface.deliver(frame)

    def _targets(self, frame: EthernetFrame) -> Tuple["NetworkInterface", ...]:
        """The attach-order receivers ``frame`` must visit (receive demux).

        A non-promiscuous, up NIC drops a unicast frame addressed to another
        station without touching a counter or emitting a record, exactly as
        Ethernet hardware filters it before software runs.  So a unicast
        frame only visits the NICs whose MAC equals its destination, the
        promiscuous NICs (bridge ports) and the down NICs (which count
        ``frames_dropped``).  Group-addressed frames — broadcast and
        multicast share the group bit — pass every filter and visit every
        receiver.  :meth:`NetworkInterface.deliver` still applies the full
        filter, so every target's behaviour is unchanged.

        The index is rebuilt on first use after :meth:`_refresh_express`
        invalidates it, in O(n·p) for p promiscuous-or-down NICs.  Changes
        take effect from the next frame on: a delivery loop iterates the
        tuple it started with, as it always iterated the receiver snapshot.
        """
        octets = frame.destination._octets
        if octets[0] & 1:
            return self._receivers
        index = self._unicast
        if index is None:
            index = self._build_unicast()
        return index.get(octets, self._unicast_other)

    def _build_unicast(self) -> dict:
        """Rebuild the unicast receive index from the current receivers.

        Only destinations owned by an up, non-promiscuous NIC get a key; any
        other destination reaches exactly the promiscuous-or-down NICs.
        """
        other: list = []
        by_mac: dict = {}
        for position, interface in enumerate(self._receivers):
            if interface.promiscuous or not interface.up:
                other.append((position, interface))
            else:
                by_mac.setdefault(interface.mac._octets, []).append(
                    (position, interface)
                )
        index = {}
        for octets, matching in by_mac.items():
            if other:
                # Two ascending position runs: timsort merges them linearly.
                matching = sorted(matching + other)
            index[octets] = tuple(interface for _, interface in matching)
        self._unicast_other = tuple(interface for _, interface in other)
        self._unicast = index
        return index

    def _deliver_run(
        self,
        sender: "NetworkInterface",
        frame: EthernetFrame,
        run: List["NetworkInterface"],
        first: bool,
    ) -> None:
        """Deliver ``frame`` to one same-shard run of receivers.

        Runs are snapshotted when the frame is scheduled (an interface that
        detaches mid-flight is skipped below; one that attaches mid-flight
        joins from the next frame on — the classic path snapshots at delivery
        instead, a difference only visible to mid-flight retopology).
        """
        if first:
            trace = self._trace
            if trace.wants("segment.deliver"):
                trace.emit(
                    self.name,
                    "segment.deliver",
                    (sender_frame_detail, sender, frame),
                )
        for interface in run:
            if interface is sender or interface.segment is not self:
                continue
            interface.deliver(frame)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def utilization(self, elapsed_seconds: Optional[float] = None) -> float:
        """Fraction of wire capacity used since time zero (or over ``elapsed_seconds``)."""
        elapsed = self.sim.now if elapsed_seconds is None else elapsed_seconds
        if elapsed <= 0:
            return 0.0
        bits = self.bytes_carried * 8.0
        return min(1.0, bits / (self.bandwidth_bps * elapsed))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Segment({self.name!r}, {self.bandwidth_bps/1e6:.0f} Mb/s, "
            f"{len(self._interfaces)} stations)"
        )
