"""Events and the event queue.

An :class:`Event` is a callback scheduled at an absolute simulated time.
The :class:`EventQueue` orders events by ``(time, sequence number)`` so that
two events scheduled for the same instant fire in the order they were
scheduled — this makes the whole simulation deterministic, which the paper's
reproducible measurements depend on.

There is one queue implementation, used by every engine: the single
:class:`~repro.sim.engine.Simulator`, each
:class:`~repro.sim.shard.EngineShard` of the sharded fabric and the fabric's
relaxed control ring.  It is a *bucketed event ring* rather than one binary
heap: events at the same nanosecond live in one FIFO bucket (append order
equals sequence order because the sequence counter is monotone — and shared
by every queue of a fabric), so pushes are O(1) list appends and the small
time-heap is touched once per distinct timestamp.  Workloads in this
simulator cluster heavily on identical timestamps (synchronized segments,
zero-cost CPU batches), which is what amortizes heap traffic on the hot
path.

Cancelled events stay in their bucket (keeping :meth:`Event.cancel` O(1))
and are discarded when the drain reaches them; a live-event counter keeps
``len()`` and ``bool()`` O(1).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Optional

from repro.exceptions import SchedulingError

#: Upper bound on recycled bucket lists kept per :class:`EventQueue` — a
#: backstop so a momentary burst of distinct timestamps cannot pin an
#: unbounded pile of empty lists for the rest of a long run.
_BUCKET_FREE_CAP = 1024


def validate_schedule_time(now_ns: int, when_ns: int) -> None:
    """Raise :class:`SchedulingError` if ``when_ns`` lies in the past.

    Shared by every engine so they all report the identical error.
    """
    if when_ns < now_ns:
        raise SchedulingError(
            f"cannot schedule an event at t={when_ns}ns, "
            f"which is before the current time t={now_ns}ns"
        )


class Event:
    """A single scheduled event.

    Attributes:
        time_ns: absolute simulated time (nanoseconds) at which to fire.
        sequence: tie-breaker preserving scheduling order at equal times.
        callback: zero-argument callable invoked when the event fires.
        label: free-form string used by traces and debugging output.
        cancelled: set by :meth:`cancel`; cancelled events are skipped.
    """

    __slots__ = ("time_ns", "sequence", "callback", "label", "cancelled", "_queue")

    def __init__(
        self,
        time_ns: int,
        sequence: int,
        callback: Callable[[], None],
        label: str = "",
        cancelled: bool = False,
        _queue: Optional["EventQueue"] = None,
    ) -> None:
        self.time_ns = time_ns
        self.sequence = sequence
        self.callback = callback
        self.label = label
        self.cancelled = cancelled
        self._queue = _queue

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped.

        Cancelling is O(1): the event stays in its queue's bucket but the
        queue's live counter is decremented immediately.
        """
        if self.cancelled:
            return
        self.cancelled = True
        if self._queue is not None:
            self._queue._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return (
            f"Event(time_ns={self.time_ns}, sequence={self.sequence}, "
            f"label={self.label!r}, {state})"
        )


class EventQueue:
    """A bucketed event ring: FIFO buckets per timestamp plus a time heap.

    Events in one bucket fire in append order, which equals sequence order
    because ``counter`` is monotone (the sharded fabric passes one counter to
    every shard queue, keeping ``(time, sequence)`` a global order).  The
    heap only orders *distinct* timestamps, so scheduling N same-time events
    costs N list appends plus one heap push.

    Bucket entries are ``(sequence, callback, event_or_None)`` triples: the
    cancellable scheduling APIs attach an :class:`Event` handle, while the
    fire-and-forget path (``schedule_fire``, used by the frame hot path for
    deliveries that are never cancelled) skips the handle allocation
    entirely.

    The engines drain the buckets in place (see
    :meth:`repro.sim.engine.Simulator._drain`); :meth:`top_key` and
    :meth:`pop` serve callers that take one event at a time.
    :attr:`cancelled_discarded` counts cancelled events dropped on the way.

    Drained bucket lists are recycled through a bounded free list
    (:attr:`_free`): a steady-state run churns through one bucket per
    distinct timestamp, and reusing the list objects removes that
    allocation from the scheduling hot path.  Recycling touches only
    *empty* lists, so event ordering and contents are untouched — the
    bit-identity suites hold verbatim.
    """

    __slots__ = (
        "_counter",
        "_buckets",
        "_times",
        "_free",
        "_live",
        "_dead",
        "cancelled_discarded",
    )

    def __init__(self, counter) -> None:
        self._counter = counter
        self._buckets: dict = {}
        self._times: list = []
        self._free: list = []
        self._live = 0
        self._dead = 0
        self.cancelled_discarded = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, time_ns: int, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule ``callback`` at ``time_ns`` and return a cancellable event."""
        sequence = next(self._counter)
        event = Event(time_ns, sequence, callback, label, False, self)
        bucket = self._buckets.get(time_ns)
        if bucket is None:
            free = self._free
            self._buckets[time_ns] = bucket = free.pop() if free else []
            heappush(self._times, time_ns)
        bucket.append((sequence, callback, event))
        self._live += 1
        return event

    def push_fire(self, time_ns: int, callback: Callable[[], None]) -> int:
        """Schedule ``callback`` with no cancellation handle; returns its sequence."""
        sequence = next(self._counter)
        bucket = self._buckets.get(time_ns)
        if bucket is None:
            free = self._free
            self._buckets[time_ns] = bucket = free.pop() if free else []
            heappush(self._times, time_ns)
        bucket.append((sequence, callback, None))
        self._live += 1
        return sequence

    def _note_cancelled(self) -> None:
        self._live -= 1
        self._dead += 1

    def _drop_bucket(self, time_ns: int) -> None:
        """Retire the drained head bucket at ``time_ns`` onto the free list."""
        heappop(self._times)
        bucket = self._buckets.pop(time_ns)
        free = self._free
        if len(free) < _BUCKET_FREE_CAP:
            free.append(bucket)

    def top_key(self) -> Optional[tuple]:
        """``(time_ns, sequence)`` of the earliest live event, or ``None``.

        Skips (and physically discards) cancelled events at bucket heads and
        drops drained buckets on the way.
        """
        times = self._times
        buckets = self._buckets
        while times:
            t = times[0]
            bucket = buckets[t]
            # Skip cancelled heads by index, then drop them in one slice —
            # a bucket of k dead same-time timers costs O(k), not O(k^2).
            index = 0
            size = len(bucket)
            while index < size:
                entry = bucket[index]
                event = entry[2]
                if event is None or not event.cancelled:
                    break
                index += 1
            if index:
                del bucket[:index]
                self.cancelled_discarded += index
                self._dead -= index
            if bucket:
                entry = bucket[0]
                return (t, entry[0])
            self._drop_bucket(t)
        return None

    def pop(self) -> Optional[tuple]:
        """Pop the earliest live ``(sequence, callback, event)`` entry."""
        key = self.top_key()
        if key is None:
            return None
        bucket = self._buckets[key[0]]
        entry = bucket.pop(0)
        self._live -= 1
        if entry[2] is not None:
            entry[2]._queue = None
        return entry

    def clear(self) -> None:
        """Drop every pending event."""
        for bucket in self._buckets.values():
            for entry in bucket:
                if entry[2] is not None:
                    entry[2]._queue = None
        self._buckets.clear()
        self._times.clear()
        self._live = 0
        self._dead = 0


def describe_event(event: Event) -> dict:
    """Return a JSON-friendly description of an event (for traces and tests)."""
    return {
        "time_ns": event.time_ns,
        "sequence": event.sequence,
        "label": event.label,
        "cancelled": event.cancelled,
    }
