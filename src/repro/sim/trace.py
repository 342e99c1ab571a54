"""Event tracing: a dispatch hub with pluggable sinks.

Every component in the reproduction can emit structured records into the
simulator's :class:`TraceRecorder`.  The measurement tools (ping, ttcp, the
agility probe) and the protocol-transition benchmark (Table 1) are built on
top of this trace, which keeps measurement completely decoupled from the
components being measured — the same property the paper gets from
instrumenting its bridge externally with ``ping``/``ttcp``.

The recorder itself is only a *hub*: it stamps records with simulated time,
applies global and per-category gating, and dispatches to composable sinks:

* :class:`ListSink` — keeps every record, with per-category and per-source
  indexes so :meth:`TraceRecorder.filter` / :meth:`TraceRecorder.last` cost
  O(matches) instead of O(all records).  One is installed by default.
* :class:`RingBufferSink` — keeps only the newest ``capacity`` records, for
  long (million-frame) runs that must not grow without bound.
* :class:`CountingSink` — O(1)-memory per-category / per-source counters.
  The hub always maintains one internally (:attr:`TraceRecorder.counters`),
  which is what makes :meth:`TraceRecorder.count` O(1) and lets measurement
  tools subscribe to live counters instead of re-scanning the trace.
* :class:`NullSink` — discards everything (benchmarking floor).

Record *details* are rendered lazily: producers on the frame hot path pass a
data tuple ``(render, *args)`` instead of an eager dict, where ``render`` is
one of this module's renderers (:func:`frame_detail` and its siblings), and
the expensive rendering (``frame.describe()`` strings and the like) only
happens if some consumer actually reads :attr:`TraceRecord.detail`.  A tuple
holds no function object or closure cells of its own, so a long retained
trace leaves the cyclic garbage collector far fewer objects to walk on every
full collection than per-record closures would.  Producers guard even the tuple
allocation with :meth:`TraceRecorder.wants`.  A zero-argument callable is
still accepted, for producers outside the frame path.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.sim.clock import Clock

#: What producers may pass as a record's detail: nothing, an eager mapping,
#: a data tuple ``(render, *args)`` whose ``render(*args)`` returns a fresh
#: mapping, or a zero-argument callable returning one.  Both lazy forms are
#: rendered by :func:`render_detail` on first access.  Frame-path producers
#: use the tuple with a renderer from this module: it retains no function
#: object or cells per record.
DetailSource = Union[
    None, Dict[str, Any], Tuple[Any, ...], Callable[[], Dict[str, Any]]
]


def render_detail(payload: DetailSource) -> Dict[str, Any]:
    """The dict behind any :data:`DetailSource` (renders the lazy forms)."""
    if payload is None:
        return {}
    if type(payload) is tuple:
        return payload[0](*payload[1:])
    if callable(payload):
        return dict(payload())
    return payload


# Renderers for the frame-path data tuples, one per record shape.


def frame_detail(frame: Any) -> Dict[str, Any]:
    """``nic.tx`` / ``nic.rx``: the frame's one-line description."""
    return {"frame": frame.describe()}


def sender_frame_detail(sender: Any, frame: Any) -> Dict[str, Any]:
    """``segment.enqueue`` / ``segment.deliver``: sending NIC and frame."""
    return {"sender": sender.name, "frame": frame.describe()}


def drop_detail(sender: Any, reason: str, frame: Any) -> Dict[str, Any]:
    """``segment.drop``: sending NIC, loss reason and frame."""
    return {"sender": sender.name, "reason": reason, "frame": frame.describe()}


def forward_detail(interface: str, frame: Any) -> Dict[str, Any]:
    """``node.forward``: egress interface and frame length on the wire."""
    return {"interface": interface, "bytes": frame.frame_length}


def unclaimed_detail(interface: str, frame: Any) -> Dict[str, Any]:
    """``unixnet.unclaimed``: ingress interface and destination MAC."""
    return {"interface": interface, "destination": str(frame.destination)}


def interface_detail(interface: str) -> Dict[str, Any]:
    """``repeater.forward``: the egress interface."""
    return {"interface": interface}


class TraceRecord:
    """A single trace record.

    Attributes:
        time: simulated time (seconds) the record was emitted.
        source: name of the component that emitted the record
            (e.g. ``"bridge1"``, ``"host-a"``, ``"control-switchlet"``).
        category: machine-readable record category
            (e.g. ``"frame.rx"``, ``"stp.state"``, ``"transition"``).
        detail: free-form key/value payload.  May be produced lazily: when
            the producer supplied a data tuple or a callable it is rendered
            on first access and the result is cached, so untouched hot-path
            records never pay for rendering.
        seq: global emission sequence number, stamped by the sharded fabric's
            per-shard recorders so per-shard streams merge back into the
            exact single-engine emission order; ``None`` on records emitted
            by a plain (unsharded) recorder.  Deliberately ignored by
            equality: a sharded and an unsharded run compare record-for-record
            even though only one of them carries merge keys.
    """

    __slots__ = ("time", "source", "category", "_detail", "seq")

    def __init__(
        self,
        time: float,
        source: str,
        category: str,
        detail: DetailSource = None,
        seq: Optional[int] = None,
    ) -> None:
        self.time = time
        self.source = source
        self.category = category
        self._detail = detail
        self.seq = seq

    @property
    def detail(self) -> Dict[str, Any]:
        """The record's payload, rendering (and caching) it if it was lazy."""
        payload = self._detail
        if type(payload) is not dict:
            payload = self._detail = render_detail(payload)
        return payload

    @property
    def detail_is_rendered(self) -> bool:
        """Whether the payload has been rendered yet (diagnostics/tests)."""
        payload = self._detail
        return type(payload) is not tuple and not callable(payload)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceRecord):
            return NotImplemented
        return (
            self.time == other.time
            and self.source == other.source
            and self.category == other.category
            and self.detail == other.detail
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceRecord(time={self.time!r}, source={self.source!r}, "
            f"category={self.category!r}, detail={self.detail!r})"
        )


def match_records(
    records: Iterable[TraceRecord],
    category: Optional[str] = None,
    source: Optional[str] = None,
    since: Optional[float] = None,
    until: Optional[float] = None,
) -> List[TraceRecord]:
    """Records matching every provided criterion, preserving input order.

    The shared predicate behind the queryable sinks' :meth:`ListSink.filter`
    / :meth:`RingBufferSink.filter` and the sharded fabric's stream queries.
    """
    selected = []
    for entry in records:
        if category is not None and entry.category != category:
            continue
        if source is not None and entry.source != source:
            continue
        if since is not None and entry.time < since:
            continue
        if until is not None and entry.time > until:
            continue
        selected.append(entry)
    return selected


def last_match(
    records: Sequence[TraceRecord],
    category: Optional[str] = None,
    source: Optional[str] = None,
) -> Optional[TraceRecord]:
    """The most recent record matching the criteria, if any."""
    for entry in reversed(records):
        if category is not None and entry.category != category:
            continue
        if source is not None and entry.source != source:
            continue
        return entry
    return None


# ---------------------------------------------------------------------------
# Sinks
# ---------------------------------------------------------------------------


class TraceSink:
    """Base class for trace sinks.  Subclasses implement :meth:`accept`."""

    def accept(self, record: TraceRecord) -> None:
        """Receive one record (called synchronously by the hub)."""
        raise NotImplementedError

    def clear(self) -> None:
        """Drop any retained state (records, counters)."""


class NullSink(TraceSink):
    """Discards every record; the floor for trace-overhead benchmarks."""

    def accept(self, record: TraceRecord) -> None:
        pass


def _count_pairs(
    pairs: Dict[Tuple[str, str], int],
    category: Optional[str],
    source: Optional[str],
) -> int:
    """Count matching records in a (category, source) -> n pair table."""
    if category is not None and source is not None:
        return pairs.get((category, source), 0)
    if category is None and source is None:
        return sum(pairs.values())
    if source is None:
        return sum(n for (c, _s), n in pairs.items() if c == category)
    return sum(n for (_c, s), n in pairs.items() if s == source)


class CountingSink(TraceSink):
    """Live counters in O(distinct (category, source) pairs) memory.

    The accept path maintains a single pair table (one dict update per
    record); the aggregate views (:attr:`total`, :attr:`by_category`,
    :attr:`by_source`) are derived on read, which costs O(pairs) — pairs
    number in the dozens, so queries are effectively O(1) while the hot path
    pays the bare minimum.
    """

    def __init__(self) -> None:
        self.by_category_source: Dict[Tuple[str, str], int] = {}

    def accept(self, record: TraceRecord) -> None:
        pair = (record.category, record.source)
        by_pair = self.by_category_source
        by_pair[pair] = by_pair.get(pair, 0) + 1

    @property
    def total(self) -> int:
        """Total records seen."""
        return sum(self.by_category_source.values())

    @property
    def by_category(self) -> Dict[str, int]:
        """Per-category totals (derived; a fresh dict each access)."""
        out: Dict[str, int] = {}
        for (category, _source), n in self.by_category_source.items():
            out[category] = out.get(category, 0) + n
        return out

    @property
    def by_source(self) -> Dict[str, int]:
        """Per-source totals (derived; a fresh dict each access)."""
        out: Dict[str, int] = {}
        for (_category, source), n in self.by_category_source.items():
            out[source] = out.get(source, 0) + n
        return out

    def count(self, category: Optional[str] = None, source: Optional[str] = None) -> int:
        """Number of records seen matching the criteria."""
        return _count_pairs(self.by_category_source, category, source)

    def snapshot(self) -> Dict[str, int]:
        """A copy of the per-category counters (for reports)."""
        return self.by_category

    def clear(self) -> None:
        self.by_category_source.clear()


class CounterWindow:
    """Deltas of a hub's live counters over a measurement window.

    Measurement tools open a window when a trial starts and read counter
    deltas when it ends — O(1) per query, no re-scan of the record list, and
    it works even when only a :class:`NullSink` or :class:`RingBufferSink` is
    installed (the hub's internal :class:`CountingSink` is always live).
    """

    def __init__(self, recorder: "TraceRecorder") -> None:
        self._recorder = recorder
        self._start_pairs = dict(recorder.counters.by_category_source)

    def count(self, category: Optional[str] = None, source: Optional[str] = None) -> int:
        """Records captured since the window opened, matching the criteria."""
        now = _count_pairs(
            self._recorder.counters.by_category_source, category, source
        )
        return now - _count_pairs(self._start_pairs, category, source)


class ListSink(TraceSink):
    """Keeps every record, indexed by category and by source.

    The indexes make :meth:`filter`, :meth:`count` and :meth:`last` cost
    O(matching records) rather than O(all records): single-criterion queries
    walk only the matching index list, and two-criterion queries walk the
    shorter of the two.
    """

    def __init__(self) -> None:
        self._records: List[TraceRecord] = []
        self._by_category: Dict[str, List[TraceRecord]] = {}
        self._by_source: Dict[str, List[TraceRecord]] = {}
        self._indexed_upto = 0

    def accept(self, record: TraceRecord) -> None:
        # One list append on the hot path; the indexes catch up lazily on
        # the next query (queries happen between runs, not per frame).
        self._records.append(record)

    def _refresh_index(self) -> None:
        records = self._records
        upto = self._indexed_upto
        total = len(records)
        if upto == total:
            return
        by_category = self._by_category
        by_source = self._by_source
        for index in range(upto, total):
            record = records[index]
            bucket = by_category.get(record.category)
            if bucket is None:
                bucket = by_category[record.category] = []
            bucket.append(record)
            bucket = by_source.get(record.source)
            if bucket is None:
                bucket = by_source[record.source] = []
            bucket.append(record)
        self._indexed_upto = total

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    @property
    def records(self) -> List[TraceRecord]:
        """The retained records, oldest first (a copy)."""
        return list(self._records)

    def _candidates(
        self, category: Optional[str], source: Optional[str]
    ) -> List[TraceRecord]:
        """The smallest index list guaranteed to contain every match."""
        self._refresh_index()
        if category is not None and source is not None:
            by_category = self._by_category.get(category, [])
            by_source = self._by_source.get(source, [])
            return by_category if len(by_category) <= len(by_source) else by_source
        if category is not None:
            return self._by_category.get(category, [])
        if source is not None:
            return self._by_source.get(source, [])
        return self._records

    def filter(
        self,
        category: Optional[str] = None,
        source: Optional[str] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
    ) -> List[TraceRecord]:
        """Return records matching every provided criterion."""
        return match_records(
            self._candidates(category, source), category, source, since, until
        )

    def count(self, category: Optional[str] = None, source: Optional[str] = None) -> int:
        """Number of retained records matching the criteria."""
        if category is None and source is None:
            return len(self._records)
        self._refresh_index()
        if source is None:
            return len(self._by_category.get(category, []))
        if category is None:
            return len(self._by_source.get(source, []))
        return len(self.filter(category=category, source=source))

    def last(
        self, category: Optional[str] = None, source: Optional[str] = None
    ) -> Optional[TraceRecord]:
        """The most recent record matching the criteria, if any."""
        return last_match(self._candidates(category, source), category, source)

    def clear(self) -> None:
        self._records.clear()
        self._by_category.clear()
        self._by_source.clear()
        self._indexed_upto = 0


class RingBufferSink(TraceSink):
    """Keeps only the newest ``capacity`` records (bounded memory).

    Queries scan the retained window, which is bounded by ``capacity``;
    :attr:`evicted` counts records that have fallen off the old end.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("ring buffer capacity must be positive")
        self.capacity = int(capacity)
        self._records: deque = deque(maxlen=self.capacity)
        self.evicted = 0

    def accept(self, record: TraceRecord) -> None:
        if len(self._records) == self.capacity:
            self.evicted += 1
        self._records.append(record)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    @property
    def records(self) -> List[TraceRecord]:
        """The retained records, oldest first (a copy)."""
        return list(self._records)

    def filter(
        self,
        category: Optional[str] = None,
        source: Optional[str] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
    ) -> List[TraceRecord]:
        """Records in the retained window matching every provided criterion."""
        return match_records(self._records, category, source, since, until)

    def count(self, category: Optional[str] = None, source: Optional[str] = None) -> int:
        """Number of retained records matching the criteria."""
        if category is None and source is None:
            return len(self._records)
        return len(self.filter(category=category, source=source))

    def last(
        self, category: Optional[str] = None, source: Optional[str] = None
    ) -> Optional[TraceRecord]:
        """The most recent retained record matching the criteria, if any."""
        return last_match(self._records, category, source)

    def clear(self) -> None:
        self._records.clear()
        self.evicted = 0


# ---------------------------------------------------------------------------
# The hub
# ---------------------------------------------------------------------------


class TraceRecorder:
    """The trace hub: stamps, gates and dispatches records to sinks.

    Args:
        clock: the simulated clock used to timestamp records.
        sinks: initial sinks; defaults to a single :class:`ListSink`, which
            preserves the historical "append-only, filterable list" API
            (iteration, :meth:`filter`, :meth:`last`).

    Queries (:meth:`filter`, :meth:`last`, iteration) are served by the first
    queryable sink (:class:`ListSink` or :class:`RingBufferSink`);
    :meth:`count` and :meth:`__len__` are served by the always-on internal
    :class:`CountingSink` (:attr:`counters`) and are therefore O(1) and
    independent of which sinks are installed.
    """

    def __init__(self, clock: Clock, sinks: Optional[Iterable[TraceSink]] = None) -> None:
        self._clock = clock
        self._enabled = True
        self._listeners: List[Callable[[TraceRecord], None]] = []
        self._disabled_categories: set = set()
        self.counters = CountingSink()
        self._sinks: List[TraceSink] = list(sinks) if sinks is not None else [ListSink()]
        self._primary: Optional[TraceSink] = None
        self._refresh_primary()

    # ------------------------------------------------------------------
    # Sink management
    # ------------------------------------------------------------------

    def _refresh_primary(self) -> None:
        self._primary = next(
            (sink for sink in self._sinks if hasattr(sink, "filter")), None
        )

    @property
    def sinks(self) -> Tuple[TraceSink, ...]:
        """The installed sinks, in dispatch order."""
        return tuple(self._sinks)

    def add_sink(self, sink: TraceSink) -> TraceSink:
        """Install an additional sink and return it."""
        self._sinks.append(sink)
        self._refresh_primary()
        return sink

    def remove_sink(self, sink: TraceSink) -> None:
        """Uninstall a sink (no-op if it is not installed)."""
        if sink in self._sinks:
            self._sinks.remove(sink)
            self._refresh_primary()

    def set_sinks(self, sinks: Iterable[TraceSink]) -> None:
        """Replace the installed sinks wholesale."""
        self._sinks = list(sinks)
        self._refresh_primary()

    # ------------------------------------------------------------------
    # Gating
    # ------------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether records are currently being captured."""
        return self._enabled

    def disable(self) -> None:
        """Stop capturing records (sinks and listeners stop firing)."""
        self._enabled = False

    def enable(self) -> None:
        """Resume capturing records."""
        self._enabled = True

    def disable_category(self, category: str) -> None:
        """Suppress one category: neither sinks nor listeners see it."""
        self._disabled_categories.add(category)

    def enable_category(self, category: str) -> None:
        """Re-enable a previously disabled category."""
        self._disabled_categories.discard(category)

    @property
    def disabled_categories(self) -> frozenset:
        """The categories currently gated off."""
        return frozenset(self._disabled_categories)

    def wants(self, category: str) -> bool:
        """Whether a record in ``category`` would currently be captured.

        Hot-path producers call this before allocating even the lazy detail
        tuple, so a gated category costs one set lookup per record.
        """
        return self._enabled and category not in self._disabled_categories

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def add_listener(self, listener: Callable[[TraceRecord], None]) -> None:
        """Register a callback invoked synchronously for every new record."""
        self._listeners.append(listener)

    def remove_listener(self, listener: Callable[[TraceRecord], None]) -> None:
        """Unregister a listener (no-op if absent)."""
        if listener in self._listeners:
            self._listeners.remove(listener)

    def emit(
        self, source: str, category: str, detail: DetailSource = None
    ) -> Optional[TraceRecord]:
        """Dispatch a record stamped with the current simulated time.

        ``detail`` may be an eager dict, or a ``(render, *args)`` data tuple
        or zero-argument callable rendered only when some consumer reads
        :attr:`TraceRecord.detail`.
        """
        if not self._enabled or category in self._disabled_categories:
            return None
        entry = TraceRecord(self._clock.now, source, category, detail)
        # Inline the internal counter update: this runs for every record and
        # a method call per record is measurable on the frame hot path.
        pair = (category, source)
        by_pair = self.counters.by_category_source
        by_pair[pair] = by_pair.get(pair, 0) + 1
        for sink in self._sinks:
            sink.accept(entry)
        for listener in self._listeners:
            listener(entry)
        return entry

    def record(self, source: str, category: str, **detail: Any) -> Optional[TraceRecord]:
        """Back-compat eager form of :meth:`emit` (keyword arguments as detail)."""
        return self.emit(source, category, detail if detail else None)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Total records captured since construction / the last :meth:`clear`."""
        return self.counters.total

    def __iter__(self) -> Iterator[TraceRecord]:
        """Iterate the records retained by the primary queryable sink."""
        if self._primary is None:
            return iter(())
        return iter(self._primary)  # type: ignore[arg-type]

    def filter(
        self,
        category: Optional[str] = None,
        source: Optional[str] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
    ) -> List[TraceRecord]:
        """Records retained by the primary sink matching every criterion."""
        if self._primary is None:
            return []
        return self._primary.filter(  # type: ignore[union-attr]
            category=category, source=source, since=since, until=until
        )

    def count(self, category: Optional[str] = None, source: Optional[str] = None) -> int:
        """Number of records captured matching the criteria (O(1), live)."""
        return self.counters.count(category=category, source=source)

    def last(
        self, category: Optional[str] = None, source: Optional[str] = None
    ) -> Optional[TraceRecord]:
        """The most recent retained record matching the criteria, if any."""
        if self._primary is None:
            return None
        return self._primary.last(category=category, source=source)  # type: ignore[union-attr]

    def clear(self) -> None:
        """Drop all captured records and reset the live counters."""
        self.counters.clear()
        for sink in self._sinks:
            sink.clear()
