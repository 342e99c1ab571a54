"""The per-shard scheduling core of the sharded event fabric.

:class:`EngineShard` is one shard of a
:class:`~repro.sim.fabric.ShardedSimulator`: it owns its own event ring
(an :class:`~repro.sim.events.EventQueue`), its own progress cursor and its
own trace stream (:class:`ShardTraceRecorder`), and it duck-types the
:class:`~repro.sim.engine.Simulator` scheduling API (``now``, ``schedule``,
``schedule_at``, ``schedule_at_ns``, ``call_soon``, ``trace``, ``random``,
``clock``) so every existing component — segments, NICs, hosts, active nodes,
CPU queues, timers — runs on a shard unchanged.

Three shared pieces of state make the fabric *bit-deterministic* relative to
the single engine when it runs in strict mode:

* one **event-sequence counter** shared by every shard queue, so
  ``(time_ns, sequence)`` stays a global total order exactly as in the
  single :class:`~repro.sim.engine.Simulator`'s queue;
* one **clock**, advanced by the coordinator strictly in that global order,
  so a component called synchronously across a shard boundary (a NIC sending
  onto a segment homed on another shard) reads the same timestamps it would
  under the single engine;
* one **trace emission counter**, stamped onto every record
  (:attr:`~repro.sim.trace.TraceRecord.seq`), which is the deterministic
  merge key that interleaves per-shard trace streams back into the exact
  single-engine emission order.

**Emission-seq ordering invariant.**  Because the emission counter is shared
and monotone, every *per-shard* stream is seq-ascending in both execution
modes.  Strict mode additionally makes the seq a global emission order (the
``FabricTrace`` merge key).  Relaxed mode (:mod:`repro.sim.relaxed`) gives
that up — shards execute windows out of global order, so only the per-shard
monotonicity survives — and the canonical merge key becomes ``(time,
shard_id, position-in-stream)``; :meth:`EngineShard._run_window` is the
relaxed drain loop, which swaps in a **private per-shard clock** so shards
can sit at different simulated times inside one lookahead window.

Every shard runs the same bucketed :class:`~repro.sim.events.EventQueue` as
the single engine; the drain loops here differ only in what they must check
between events (the strict batch limit, the relaxed window bound).
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterator, List, Optional

from repro.sim.clock import Clock, NANOSECONDS_PER_SECOND, seconds_to_ns
from repro.sim.events import Event, EventQueue, validate_schedule_time
from repro.sim.random_source import RandomSource
from repro.sim.relaxed import _ACTIVE
from repro.sim.trace import (
    CountingSink,
    DetailSource,
    TraceRecord,
    TraceRecorder,
    TraceSink,
    last_match,
    match_records,
)


class ShardTraceRecorder(TraceRecorder):
    """One shard's trace stream, stamped with the fabric's global merge keys.

    Differences from the plain :class:`TraceRecorder`:

    * the per-``(category, source)`` counters are the **fabric-shared**
      :class:`CountingSink`, so live counter reads (``CounterWindow``,
      :meth:`count`) see the whole fabric, identically to the single engine;
    * every record is stamped with the shared emission sequence
      (:attr:`TraceRecord.seq`) — the deterministic merge key;
    * with no caller-supplied sinks the shard keeps its stream as a flat list
      of tuples and materializes :class:`TraceRecord` objects lazily on first
      query, keeping the emit hot path to one append;
    * caller-supplied sinks are *shared across shards* (the fabric passes the
      same instances to every shard), so a bounded
      :class:`~repro.sim.trace.RingBufferSink` sees the globally merged
      stream in emission order, exactly like under the single engine.
    """

    def __init__(
        self,
        clock: Clock,
        shard_index: int,
        shared_counters: CountingSink,
        emit_counter,
        sinks: Optional[List[TraceSink]] = None,
    ) -> None:
        self._clock = clock
        self._enabled = True
        self._listeners: list = []
        self._disabled_categories: set = set()
        self._shared_counters = shared_counters
        self.shard_index = shard_index
        self._emit_counter = emit_counter
        # Fast path: tuple buffer, materialized lazily.  Slow path: shared sinks.
        self._fast: Optional[list] = [] if sinks is None else None
        self._fast_append = self._fast.append if self._fast is not None else None
        self._emit_next = emit_counter.__next__
        self._materialized: list = []
        self._pairs_synced = 0
        # The fabric installs a fabric-wide counter sync here; a standalone
        # recorder falls back to syncing just its own stream.
        self._sync_all: Optional[Callable[[], None]] = None
        self._sinks: List[TraceSink] = list(sinks) if sinks is not None else []
        self._primary: Optional[TraceSink] = None
        self._refresh_primary()

    # ------------------------------------------------------------------
    # Recording (hot path)
    # ------------------------------------------------------------------

    def emit(
        self, source: str, category: str, detail: DetailSource = None
    ) -> Optional[TraceRecord]:
        if not self._enabled or category in self._disabled_categories:
            return None
        append = self._fast_append
        if append is not None:
            # One append; the (category, source) counters catch up lazily on
            # the next counter read (reads happen between trials, not per
            # record), so live counter queries still see exact totals.
            append(
                (self._clock._now_s, source, category, detail, self._emit_next())
            )
            if self._listeners or self._sinks:
                entry = self._record_at(len(self._fast) - 1)
                for sink in self._sinks:
                    sink.accept(entry)
                for listener in self._listeners:
                    listener(entry)
                return entry
            return None
        pair = (category, source)
        by_pair = self._shared_counters.by_category_source
        by_pair[pair] = by_pair.get(pair, 0) + 1
        entry = TraceRecord(
            self._clock._now_s, source, category, detail, self._emit_next()
        )
        for sink in self._sinks:
            sink.accept(entry)
        for listener in self._listeners:
            listener(entry)
        return entry

    # ------------------------------------------------------------------
    # Deferred counter aggregation
    # ------------------------------------------------------------------

    @property
    def counters(self) -> CountingSink:
        """The fabric-shared live counters (synced with this stream on read)."""
        sync_all = self._sync_all
        if sync_all is not None:
            sync_all()
        else:
            self._sync_own_counters()
        return self._shared_counters

    def _sync_own_counters(self) -> None:
        """Fold this stream's unsynced records into the shared pair table."""
        fast = self._fast
        if fast is None:
            return
        synced = self._pairs_synced
        total = len(fast)
        if synced == total:
            return
        by_pair = self._shared_counters.by_category_source
        for index in range(synced, total):
            entry = fast[index]
            pair = (entry[2], entry[1])
            by_pair[pair] = by_pair.get(pair, 0) + 1
        self._pairs_synced = total

    # ------------------------------------------------------------------
    # Materialization and queries (off the hot path)
    # ------------------------------------------------------------------

    def _record_at(self, index: int) -> TraceRecord:
        self._materialize_upto(index + 1)
        return self._materialized[index]

    def _materialize_upto(self, count: int) -> None:
        fast = self._fast
        materialized = self._materialized
        for i in range(len(materialized), count):
            time, source, category, detail, seq = fast[i]
            materialized.append(TraceRecord(time, source, category, detail, seq))

    def records_list(self) -> List[TraceRecord]:
        """This shard's retained records, in emission order (seq ascending)."""
        if self._fast is not None:
            self._materialize_upto(len(self._fast))
            return self._materialized
        if self._primary is None:
            return []
        return list(self._primary)  # type: ignore[arg-type]

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records_list())

    def filter(self, category=None, source=None, since=None, until=None):
        return match_records(
            self.records_list(), category=category, source=source,
            since=since, until=until,
        )

    def last(self, category=None, source=None):
        return last_match(self.records_list(), category=category, source=source)

    def clear(self) -> None:
        """Drop this shard's retained records (shared counters are cleared by
        the fabric, which owns them)."""
        if self._fast is not None:
            self._fast.clear()
        self._materialized.clear()
        self._pairs_synced = 0


class EngineShard:
    """One shard of the fabric: a Simulator-compatible scheduling core.

    Components constructed "on" a shard use it exactly as they would use a
    :class:`~repro.sim.engine.Simulator`; the coordinating
    :class:`~repro.sim.fabric.ShardedSimulator` drives every shard's ring in
    the global ``(time_ns, sequence)`` order.

    Attributes:
        index: the shard's position in the fabric.
        cursor_ns: the shard's own progress cursor — the firing time of the
            last event this shard dispatched.  Always ``<=`` the fabric
            clock; per-shard lag is what the conservative synchronizer
            reasons about.
        cross_pushes: events other shards (or the facade) scheduled into this
            shard's ring — cross-shard frame handoffs land here.
    """

    def __init__(
        self,
        fabric,
        index: int,
        clock: Clock,
        random: RandomSource,
        counter,
        trace: ShardTraceRecorder,
    ) -> None:
        self.fabric = fabric
        self.index = index
        self.clock = clock
        self.random = random
        self.trace = trace
        self._queue = EventQueue(counter)
        self._dispatched = 0
        self.cursor_ns = 0
        self.cross_pushes = 0
        # Relaxed-mode state: the shard's private clock (swapped in for the
        # duration of a relaxed dispatch so shards can sit at different
        # simulated times), its cross-shard outbox (single-writer mailbox,
        # flushed at window barriers), the active run's horizon (read by the
        # segment express lane) and the mode flag components test.
        self._own_clock = Clock()
        self.outbox: list = []
        self._until_ns = 0
        self.relaxed = False
        # Hot-path aliases into the queue (its containers are mutated in
        # place, never reassigned, so the aliases stay valid across clear()).
        self._q_buckets = self._queue._buckets
        self._q_times = self._queue._times
        self._q_next_seq = counter.__next__

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds (the fabric-wide clock)."""
        return self.clock._now_s

    @property
    def now_ns(self) -> int:
        """Current simulated time in nanoseconds (the fabric-wide clock)."""
        return self.clock._now_ns

    @property
    def pending_events(self) -> int:
        """Live events waiting in this shard's ring (O(1))."""
        return len(self._queue)

    def auto_station_id(self, base: int) -> int:
        """Allocate the next automatic station id (fabric-wide namespace).

        Delegates to the fabric so stations on different shards never collide
        and allocation order matches the single engine's build sequence.
        """
        return self.fabric.auto_station_id(base)

    @property
    def events_dispatched(self) -> int:
        """Events this shard has dispatched."""
        return self._dispatched

    # ------------------------------------------------------------------
    # Scheduling (Simulator-compatible)
    # ------------------------------------------------------------------

    def schedule_at_ns(
        self, when_ns: int, callback: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``callback`` at absolute time ``when_ns`` on this shard."""
        clock_now = self.clock._now_ns
        if when_ns < clock_now:
            validate_schedule_time(clock_now, when_ns)
        event = self._queue.push(when_ns, callback, label)
        fabric = self.fabric
        if fabric._active is not None and fabric._active is not self:
            fabric._note_cross_push(self, when_ns, event.sequence)
        return event

    def schedule(
        self, delay_seconds: float, callback: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``callback`` to run ``delay_seconds`` from now.

        Inlined push: this is the fabric's hottest scheduling entry point
        (CPU queues and timers), so it pays neither the ``schedule_at_ns``
        nor the ``EventQueue.push`` call.
        """
        when_ns = self.clock._now_ns + round(delay_seconds * NANOSECONDS_PER_SECOND)
        if when_ns < self.clock._now_ns:
            validate_schedule_time(self.clock._now_ns, when_ns)
        queue = self._queue
        event = Event(when_ns, self._q_next_seq(), callback, label, False, queue)
        buckets = self._q_buckets
        bucket = buckets.get(when_ns)
        if bucket is None:
            free = queue._free
            buckets[when_ns] = bucket = free.pop() if free else []
            bucket.append((event.sequence, callback, event))
            heapq.heappush(self._q_times, when_ns)
        else:
            bucket.append((event.sequence, callback, event))
        queue._live += 1
        fabric = self.fabric
        if fabric._active is not None and fabric._active is not self:
            fabric._note_cross_push(self, when_ns, event.sequence)
        return event

    def schedule_at(
        self, when_seconds: float, callback: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``callback`` at absolute simulated time ``when_seconds``.

        Inlined push, exactly as :meth:`schedule` (segments schedule every
        frame's delivery and service completion through here).
        """
        when_ns = round(when_seconds * NANOSECONDS_PER_SECOND)
        clock_now = self.clock._now_ns
        if when_ns < clock_now:
            validate_schedule_time(clock_now, when_ns)
        queue = self._queue
        event = Event(when_ns, self._q_next_seq(), callback, label, False, queue)
        buckets = self._q_buckets
        bucket = buckets.get(when_ns)
        if bucket is None:
            free = queue._free
            buckets[when_ns] = bucket = free.pop() if free else []
            bucket.append((event.sequence, callback, event))
            heapq.heappush(self._q_times, when_ns)
        else:
            bucket.append((event.sequence, callback, event))
        queue._live += 1
        fabric = self.fabric
        if fabric._active is not None and fabric._active is not self:
            fabric._note_cross_push(self, when_ns, event.sequence)
        return event

    def schedule_fire(
        self, when_seconds: float, callback: Callable[[], None], label: str = ""
    ) -> None:
        """Schedule a fire-and-forget callback at ``when_seconds``.

        Identical ordering semantics to :meth:`schedule_at`, but no
        cancellation handle is allocated (``label`` is accepted for API
        symmetry and dropped).  The frame hot path — segment delivery and
        service-completion events, which are never cancelled — runs through
        here, so the fabric skips one object allocation per event.
        """
        when_ns = round(when_seconds * NANOSECONDS_PER_SECOND)
        clock_now = self.clock._now_ns
        if when_ns < clock_now:
            validate_schedule_time(clock_now, when_ns)
        queue = self._queue
        sequence = self._q_next_seq()
        buckets = self._q_buckets
        bucket = buckets.get(when_ns)
        if bucket is None:
            free = queue._free
            buckets[when_ns] = bucket = free.pop() if free else []
            bucket.append((sequence, callback, None))
            heapq.heappush(self._q_times, when_ns)
        else:
            bucket.append((sequence, callback, None))
        queue._live += 1
        fabric = self.fabric
        if fabric._active is not None and fabric._active is not self:
            fabric._note_cross_push(self, when_ns, sequence)

    def call_soon(self, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule ``callback`` at the current time (after pending work)."""
        event = self._queue.push(self.clock._now_ns, callback, label)
        fabric = self.fabric
        if fabric._active is not None and fabric._active is not self:
            fabric._note_cross_push(self, event.time_ns, event.sequence)
        return event

    # ------------------------------------------------------------------
    # Dispatch (driven by the coordinator)
    # ------------------------------------------------------------------

    def _run_batch(self, until_ns: int, budget: Optional[int]) -> int:
        """Run this shard's events while they stay globally minimal.

        The coordinator sets ``fabric._batch_limit`` to the smallest pending
        key of every *other* shard before calling; cross-shard pushes made by
        the callbacks running here shrink that limit live, so the batch never
        runs past an event another shard must fire first.  This keeps the
        whole fabric's dispatch order exactly the single engine's
        ``(time_ns, sequence)`` order.
        """
        fabric = self.fabric
        clock = self.clock
        queue = self._queue
        times = queue._times
        buckets = queue._buckets
        n = 0
        blocked = False
        while times and not blocked:
            t = times[0]
            bucket = buckets[t]
            if not bucket:
                queue._drop_bucket(t)
                continue
            if t > until_ns:
                break
            # Consume the bucket by index (no per-event list shifting); a
            # callback may append same-time events to this very bucket, and
            # cross-shard pushes may shrink the batch limit mid-bucket, so
            # both are re-read every iteration.  The clock advances with the
            # first event actually executed (never on a blocked bucket).
            index = 0
            before = n
            while index < len(bucket):
                sequence, callback, event = bucket[index]
                if event is not None and event.cancelled:
                    index += 1
                    queue.cancelled_discarded += 1
                    queue._dead -= 1
                    continue
                limit = fabric._batch_limit
                if limit is not None and (
                    t > limit[0] or (t == limit[0] and sequence > limit[1])
                ):
                    blocked = True
                    break
                if budget is not None and n >= budget:
                    blocked = True
                    break
                index += 1
                if event is not None:
                    event._queue = None
                if t > clock._now_ns:
                    clock._now_ns = t
                    clock._now_s = t / NANOSECONDS_PER_SECOND
                callback()
                n += 1
            if n > before:
                # Settle per-bucket bookkeeping once, not per event (live
                # counts are only read between runs, never by callbacks).
                queue._live -= n - before
                self.cursor_ns = t
            if index:
                if index == len(bucket):
                    bucket.clear()
                else:
                    del bucket[:index]
        self._dispatched += n
        return n

    # ------------------------------------------------------------------
    # Relaxed (canonical-merge) execution — see repro.sim.relaxed
    # ------------------------------------------------------------------

    def _enter_relaxed(self, shared_clock: Clock, until_ns: int) -> None:
        """Swap in the shard's private clock for a relaxed dispatch."""
        clock = self._own_clock
        clock._now_ns = shared_clock._now_ns
        clock._now_s = shared_clock._now_s
        self.clock = clock
        self.trace._clock = clock
        self._until_ns = until_ns
        self.relaxed = True

    def _exit_relaxed(self, shared_clock: Clock) -> None:
        """Restore the fabric-shared clock after a relaxed dispatch."""
        self.clock = shared_clock
        self.trace._clock = shared_clock
        self.relaxed = False

    def _relaxed_push_fire(self, when_ns: int, callback) -> None:
        """Barrier-context fire-and-forget push onto this shard's ring."""
        self._queue.push_fire(when_ns, callback)

    def _run_window(
        self,
        window_end_ns: int,
        budget: Optional[int] = None,
        extend: Optional[tuple] = None,
    ) -> int:
        """Run every pending event with ``time_ns <= window_end_ns``.

        The relaxed counterpart of :meth:`_run_batch`: no batch-limit
        comparisons and no live cross-push bookkeeping — within a
        conservative window this shard's events cannot interact with any
        other shard except through the outbox, so the loop is a plain
        time-ordered drain of the bucketed ring against the shard's private
        clock.  The clock is set (not merely advanced) per bucket, because
        barrier-flushed mailbox entries may legitimately schedule below the
        shard's furthest point; record timestamps stay exact either way and
        the canonical merge re-sorts the streams by time.

        ``extend`` — ``(other_cap, lookahead_ns, control_queue,
        pump_bound_ns)`` — lets a *sole eligible* shard grow its own window
        in place instead of bouncing through the executor's barrier loop
        once per window.  While this shard has produced no mail the other
        shards' tops are provably static, so on reaching the window end the
        drain re-derives the next conservative bound exactly as the executor
        would — ``min(other_cap, t + L) + L - 1``, clipped to the pump
        bound — and keeps going.  It stops the moment mail appears, the
        runner-up shard becomes reachable, or control work is due: the
        executor's loop takes over with its full rescan.
        """
        _ACTIVE.shard = self
        queue = self._queue
        times = queue._times
        buckets = queue._buckets
        clock = self.clock
        if extend is not None:
            other_cap, ext_lookahead, control_queue, pump_bound = extend
        n = 0
        try:
            while times:
                t = times[0]
                bucket = buckets[t]
                if not bucket:
                    queue._drop_bucket(t)
                    continue
                if t > window_end_ns:
                    if extend is None or self.outbox:
                        break
                    if other_cap is not None and t >= other_cap:
                        break
                    # Raw peek: a cancelled control head only makes the time
                    # look earlier, which breaks the extension early — the
                    # executor's rescan then handles it; never unsound.
                    control_times = control_queue._times
                    if control_times and control_times[0] <= t:
                        break
                    bound = t + ext_lookahead
                    if other_cap is not None and other_cap < bound:
                        bound = other_cap
                    bound += ext_lookahead - 1
                    if bound > pump_bound:
                        bound = pump_bound
                    if t > bound:
                        break
                    window_end_ns = bound
                clock._now_ns = t
                clock._now_s = t / NANOSECONDS_PER_SECOND
                index = 0
                before = n
                while index < len(bucket):
                    sequence, callback, event = bucket[index]
                    index += 1
                    if event is not None:
                        if event.cancelled:
                            queue.cancelled_discarded += 1
                            queue._dead -= 1
                            continue
                        event._queue = None
                    callback()
                    n += 1
                    if budget is not None and n >= budget:
                        break
                if n > before:
                    queue._live -= n - before
                    if t > self.cursor_ns:
                        self.cursor_ns = t
                if index == len(bucket):
                    bucket.clear()
                else:
                    del bucket[:index]
                if budget is not None and n >= budget:
                    break
        finally:
            _ACTIVE.shard = None
        self._dispatched += n
        return n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EngineShard(index={self.index}, pending={len(self._queue)}, "
            f"dispatched={self._dispatched}, cursor={self.cursor_ns}ns)"
        )
