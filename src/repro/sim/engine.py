"""The discrete-event simulator.

:class:`Simulator` ties the :class:`~repro.sim.clock.Clock` and the
bucketed :class:`~repro.sim.events.EventQueue` together and provides the
scheduling API that the rest of the library uses:

* :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` — one-shot events,
* :meth:`Simulator.schedule_fire` — fire-and-forget events (no handle),
* :meth:`Simulator.run` / :meth:`Simulator.run_until` / :meth:`Simulator.step`
  — drive the simulation through one bucket-drain loop,
* :attr:`Simulator.trace` — a :class:`~repro.sim.trace.TraceRecorder` every
  component can append measurement records to.

A single simulator instance is shared by every host, LAN segment and active
node in an experiment; the :class:`~repro.lan.topology.NetworkBuilder` wires
that up.

For topologies too large for one engine, the same scheduling surface is
provided per shard by :class:`repro.sim.shard.EngineShard` under the
:class:`repro.sim.fabric.ShardedSimulator` coordinator, on the same queue
class — sharded runs are bit-identical to this single engine (see
:mod:`repro.sim.fabric`).
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Optional

from repro.exceptions import SimulationError
from repro.sim.clock import Clock, NANOSECONDS_PER_SECOND, seconds_to_ns
from repro.sim.events import Event, EventQueue, validate_schedule_time
from repro.sim.random_source import RandomSource
from repro.sim.trace import TraceRecorder, TraceSink


class Simulator:
    """A deterministic discrete-event simulator.

    Args:
        seed: seed for the simulator-owned :class:`RandomSource`.  Two
            simulators constructed with the same seed and driven by the same
            code produce identical event sequences and traces.
        trace_sinks: optional trace sinks to install instead of the default
            :class:`~repro.sim.trace.ListSink` (e.g. a bounded
            :class:`~repro.sim.trace.RingBufferSink` for very long runs).
    """

    #: Whether this engine is executing under the fabric's relaxed sync mode.
    #: Always ``False`` for the single engine; :class:`~repro.sim.shard.
    #: EngineShard` toggles its instance attribute during relaxed dispatches.
    #: Components (the LAN segment in particular) branch on this to pick
    #: between the classic event path and the relaxed express/mailbox paths.
    relaxed = False

    #: Telemetry state (:class:`repro.telemetry.Telemetry`), or ``None`` when
    #: telemetry is off — the only thing the hot paths ever test.  A class
    #: attribute so the default-off case costs nothing per instance.
    _telemetry = None

    def __init__(
        self, seed: int = 0, trace_sinks: Optional[Iterable[TraceSink]] = None
    ) -> None:
        self.clock = Clock()
        self.random = RandomSource(seed)
        self.trace = TraceRecorder(self.clock, sinks=trace_sinks)
        self._queue = EventQueue(itertools.count())
        self._running = False
        self._dispatched = 0
        self._auto_station_ids: dict = {}

    def auto_station_id(self, base: int) -> int:
        """Allocate the next automatic station id in the ``base`` namespace.

        Station classes (active nodes, baseline repeaters/bridges) draw their
        auto-assigned interface MAC ids from here, one counter per namespace
        base **per engine**, so two simulations built in the same process
        allocate identical addresses — runs stay bit-for-bit reproducible.
        """
        next_id = self._auto_station_ids.get(base, base)
        self._auto_station_ids[base] = next_id + 1
        return next_id

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.clock.now

    @property
    def now_ns(self) -> int:
        """Current simulated time in nanoseconds."""
        return self.clock.now_ns

    @property
    def events_dispatched(self) -> int:
        """Total number of events that have fired since construction/reset.

        Settled when each :meth:`run` / :meth:`run_until` / :meth:`step`
        call returns.
        """
        return self._dispatched

    @property
    def pending_events(self) -> int:
        """Number of events still waiting to fire (O(1))."""
        return len(self._queue)

    @property
    def cancelled_events_discarded(self) -> int:
        """Cancelled events the queue has physically dropped so far."""
        return self._queue.cancelled_discarded

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(
        self, delay_seconds: float, callback: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``callback`` to run ``delay_seconds`` from now.

        Args:
            delay_seconds: non-negative delay in seconds.
            callback: zero-argument callable.
            label: human-readable label recorded on the event.

        Returns:
            The scheduled :class:`Event`, which can be cancelled.

        Raises:
            SchedulingError: if ``delay_seconds`` is negative.
        """
        when_ns = self.clock.now_ns + seconds_to_ns(delay_seconds)
        return self.schedule_at_ns(when_ns, callback, label)

    def schedule_at(
        self, when_seconds: float, callback: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``callback`` at absolute simulated time ``when_seconds``."""
        return self.schedule_at_ns(seconds_to_ns(when_seconds), callback, label)

    def schedule_at_ns(
        self, when_ns: int, callback: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``callback`` at absolute time ``when_ns`` (nanoseconds)."""
        if when_ns < self.clock._now_ns:
            validate_schedule_time(self.clock._now_ns, when_ns)
        return self._queue.push(when_ns, callback, label)

    def schedule_fire(
        self, when_seconds: float, callback: Callable[[], None], label: str = ""
    ) -> None:
        """Schedule a fire-and-forget callback at ``when_seconds``.

        Same ordering as :meth:`schedule_at`, but no cancellation handle is
        allocated (``label`` is accepted for API symmetry and dropped).  The
        frame hot path — segment delivery and service completions, which are
        never cancelled — runs through here on every engine.
        """
        when_ns = seconds_to_ns(when_seconds)
        if when_ns < self.clock._now_ns:
            validate_schedule_time(self.clock._now_ns, when_ns)
        self._queue.push_fire(when_ns, callback)

    def call_soon(self, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule ``callback`` at the current simulated time (after pending work)."""
        return self._queue.push(self.clock.now_ns, callback, label)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Dispatch a single event.

        Returns:
            ``True`` if an event was dispatched, ``False`` if the queue was
            empty.
        """
        return self._drain(None, 1) == 1

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the event queue drains (or ``max_events`` is reached).

        Returns:
            The number of events dispatched by this call.
        """
        return self._drain(None, max_events)

    def run_until(self, until_seconds: float, max_events: Optional[int] = None) -> int:
        """Run events with firing times ``<= until_seconds``.

        The clock is advanced to ``until_seconds`` at the end even if the
        queue drained earlier, so that back-to-back ``run_until`` calls see a
        monotonically advancing clock.

        Returns:
            The number of events dispatched by this call.
        """
        until_ns = seconds_to_ns(until_seconds)
        if until_ns < self.clock.now_ns:
            raise SimulationError(
                f"run_until({until_seconds}s) is earlier than the current "
                f"time {self.clock.now}s"
            )
        return self._drain(until_ns, max_events)

    def run_for(self, duration_seconds: float, max_events: Optional[int] = None) -> int:
        """Run for ``duration_seconds`` of simulated time starting from now."""
        return self.run_until(self.now + duration_seconds, max_events=max_events)

    def _drain(self, until_ns: Optional[int], max_events: Optional[int]) -> int:
        """The dispatch loop behind :meth:`step`, :meth:`run` and :meth:`run_until`.

        Drains the ring bucket by bucket in ``(time_ns, sequence)`` order.
        Live counts and bucket retirement are settled once per bucket (also
        when a callback raises), the dispatch total once per call, and
        telemetry — queue high-water, dispatch count, one wall span per
        call — costs one ``is not None`` test per bucket when off.  The wall clock is read
        through :mod:`repro.telemetry.spans` so the overhead test can prove
        the off path never reaches it.
        """
        if self._running:
            raise SimulationError("Simulator dispatch called re-entrantly")
        queue = self._queue
        times = queue._times
        buckets = queue._buckets
        clock = self.clock
        telemetry = self._telemetry
        if telemetry is not None:
            from repro.telemetry import spans

            start = spans.perf_counter()
            high_water = queue._live
        self._running = True
        n = 0
        try:
            while times:
                if max_events is not None and n >= max_events:
                    break
                t = times[0]
                if until_ns is not None and t > until_ns:
                    break
                bucket = buckets[t]
                index = 0
                before = n
                try:
                    # Iterating the list itself picks up same-time events a
                    # callback appends to it while it drains.
                    for sequence, callback, event in bucket:
                        index += 1
                        if event is not None:
                            if event.cancelled:
                                queue.cancelled_discarded += 1
                                queue._dead -= 1
                                continue
                            event._queue = None
                        # Schedule-time validation guarantees t is never
                        # behind the clock; advance on the first live event.
                        if t > clock._now_ns:
                            clock._now_ns = t
                            clock._now_s = t / NANOSECONDS_PER_SECOND
                        n += 1
                        callback()
                        if max_events is not None and n >= max_events:
                            break
                finally:
                    queue._live -= n - before
                    if index < len(bucket):
                        del bucket[:index]
                    else:
                        bucket.clear()
                        queue._drop_bucket(t)
                if telemetry is not None and queue._live > high_water:
                    high_water = queue._live
            if until_ns is not None and clock._now_ns < until_ns:
                clock.advance_to_ns(until_ns)
        finally:
            self._running = False
            self._dispatched += n
            if telemetry is not None:
                elapsed = spans.perf_counter() - start
                registry = telemetry.registry
                registry.counter("engine_events_dispatched").inc(n)
                registry.gauge("engine_queue_high_water").set_max(high_water)
                telemetry.profiler.add("compute", elapsed)
                telemetry.profiler.add_total(elapsed)
        return n

    def enable_telemetry(self):
        """Attach telemetry state to this engine (idempotent).

        Returns the :class:`repro.telemetry.Telemetry` instance.  Metrics
        are deterministic functions of the event stream and wall spans are
        out-of-band, so enabling this never changes a simulation outcome.
        """
        if self._telemetry is None:
            from repro.telemetry import Telemetry

            self._telemetry = Telemetry(shards=1)
        return self._telemetry

    def reset(self) -> None:
        """Discard all pending events and rewind the clock to zero.

        Also rewinds the automatic station-id namespaces, so a topology
        rebuilt on a reset simulator allocates the same addresses as on a
        fresh one.
        """
        if self._running:
            raise SimulationError("Simulator.reset() called during dispatch")
        self._queue.clear()
        self.clock.reset()
        self.trace.clear()
        self._dispatched = 0
        self._auto_station_ids.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self.now:.6f}s, pending={self.pending_events}, "
            f"dispatched={self._dispatched})"
        )
