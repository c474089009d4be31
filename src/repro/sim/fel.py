"""Future event list (FEL) implementations for the simulator.

The FEL stores ``(time, priority, seq, handle)`` tuples.  Ordering is done
entirely on the tuple prefix — ``seq`` is unique per simulator, so two
entries never compare equal and the handle is never compared.  Tuple
comparison runs in C, which is the whole point: the previous engine ordered
dataclass handles through a Python-level ``__lt__`` and spent most of its
time there.

Two interchangeable backends:

- :class:`HeapFEL` — a plain binary heap (``heapq`` on tuples).  Simple,
  O(log n) per operation, kept as the reference implementation for the
  parity test suite.
- :class:`CalendarFEL` — a calendar queue (Brown 1988), the structure used
  by GridSim/CloudSim-family engines.  Events hash into fixed-width time
  buckets; only the active bucket is ever sorted, so steady-state insertion
  is O(1) and the sort cost is amortised over the bucket's events.

Both expose the same small interface (:meth:`push`, :meth:`peek_live`,
:meth:`pop_live`, :meth:`live_count`, :meth:`drain`) and both maintain a
``dropped`` counter of cancelled entries they skipped, which the simulator
flushes into the perf registry at run boundaries.

``drain(sim, registry)`` is each backend's inlined hot loop: it dispatches
every remaining event with backend internals held in locals, which is worth
~3-4x throughput over going through ``peek``/``pop`` per event.  The
simulator uses it whenever a run has no ``until``/``max_events`` bound and
no armed budget; bounded runs use the portable peek/pop path.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush
from typing import Optional

#: FEL entry: (time, priority, seq, handle).
Entry = tuple  # type alias for documentation; entries are plain tuples


class HeapFEL:
    """Binary-heap future event list (reference implementation)."""

    name = "heap"

    __slots__ = ("_heap", "_next", "_size", "dropped")

    def __init__(self) -> None:
        self._heap: list = []
        self._next: Optional[tuple] = None  # one-slot lookahead cache
        self._size = 0
        self.dropped = 0  # cancelled entries skipped (engine flushes deltas)

    def push(self, entry: tuple) -> None:
        self._size += 1
        nxt = self._next
        if nxt is not None and entry < nxt:
            # The cached lookahead is no longer the minimum: put it back.
            self._next = None
            heappush(self._heap, nxt)
        heappush(self._heap, entry)

    def _advance_raw(self) -> Optional[tuple]:
        heap = self._heap
        if heap:
            return heappop(heap)
        return None

    def peek_live(self) -> Optional[tuple]:
        """Next live entry without consuming it (cancelled entries are
        dropped and counted)."""
        e = self._next
        if e is not None:
            if not e[3].cancelled:
                return e
            self.dropped += 1
            self._size -= 1
            self._next = None
        while True:
            e = self._advance_raw()
            if e is None:
                return None
            if e[3].cancelled:
                self.dropped += 1
                self._size -= 1
                continue
            self._next = e
            return e

    def pop_live(self) -> Optional[tuple]:
        """Consume and return the next live entry (or ``None``)."""
        e = self.peek_live()
        self._next = None
        if e is not None:
            self._size -= 1
        return e

    def __len__(self) -> int:
        """Entries currently stored, including not-yet-dropped cancelled."""
        return self._size

    def live_count(self) -> int:
        n = 0
        if self._next is not None and not self._next[3].cancelled:
            n += 1
        for e in self._heap:
            if not e[3].cancelled:
                n += 1
        return n

    def drain(self, sim, registry) -> None:
        """Dispatch every remaining event in order (unbounded hot loop)."""
        nxt = self._next
        if nxt is not None:
            self._next = None
            heappush(self._heap, nxt)
        heap = self._heap
        pop = heappop
        executed = sim.events_executed
        dropped = 0
        if registry is None:
            try:
                while heap:
                    e = pop(heap)
                    h = e[3]
                    if h.cancelled:
                        dropped += 1
                        continue
                    h.fired = True
                    executed += 1
                    sim._now = e[0]
                    h.fn(*h.args)
            finally:
                self._size = len(heap)
                self.dropped += dropped
                sim.events_executed = executed
        else:
            sample = registry.sample_interval
            countdown = sim._sample_countdown
            ring = registry.ring("sim.dispatch_latency_s")
            perf_counter = time.perf_counter
            try:
                while heap:
                    e = pop(heap)
                    h = e[3]
                    if h.cancelled:
                        dropped += 1
                        continue
                    h.fired = True
                    executed += 1
                    sim._now = e[0]
                    countdown -= 1
                    if countdown:
                        h.fn(*h.args)
                    else:
                        countdown = sample
                        t0 = perf_counter()
                        h.fn(*h.args)
                        ring.record(perf_counter() - t0)
            finally:
                self._size = len(heap)
                self.dropped += dropped
                sim.events_executed = executed
                sim._sample_countdown = countdown


class CalendarFEL:
    """Calendar-queue future event list.

    Events are appended unsorted to dict buckets keyed by
    ``int(time * 1/width)``; a small heap of bucket keys finds the next
    non-empty bucket in a sparse calendar.  When a bucket becomes active it
    is sorted once and then consumed in order by index.  Insertions that
    land in (or before) the active bucket go to a small overflow heap that
    the consumer merges on the fly, so the active list is never mutated
    mid-iteration.

    Correctness does not depend on the width: the bucket mapping is
    monotone in time, every entry lands either in a strictly-later bucket
    or in the overflow heap, and ties are resolved by the full
    ``(time, priority, seq)`` tuple order.  The width only shifts work
    between bucket sorting (width too large → one big sort, degrades to
    ``list.sort``) and key-heap traffic (width too small → one bucket per
    event, degrades to a binary heap of ints).  The default width is 1 s,
    far below the arrival gaps of the workload generator: the arrivals of
    a default-config 500-job workload are a median 245 s apart (seed 7;
    255 s at seed 0), so each lands in a bucket of its own.  Both degraded
    modes are still correct and roughly heap-speed.
    """

    name = "calendar"

    __slots__ = (
        "_inv",
        "_cur",
        "_idx",
        "_cur_key",
        "_extra",
        "_buckets",
        "_keys",
        "_next",
        "_size",
        "dropped",
    )

    def __init__(self, width: float = 1.0) -> None:
        if width <= 0:
            raise ValueError(f"bucket width must be positive, got {width}")
        self._inv = 1.0 / width
        self._cur: list = []  # active bucket, sorted, consumed by index
        self._idx = 0
        self._cur_key: float = float("-inf")
        self._extra: list = []  # heap: entries at or before the active bucket
        self._buckets: dict = {}  # key -> unsorted list of future entries
        self._keys: list = []  # heap of bucket keys present in _buckets
        self._next: Optional[tuple] = None  # one-slot lookahead cache
        self._size = 0
        self.dropped = 0

    def _insert(self, entry: tuple) -> None:
        key = int(entry[0] * self._inv)
        if key <= self._cur_key:
            heappush(self._extra, entry)
        else:
            b = self._buckets.get(key)
            if b is None:
                self._buckets[key] = [entry]
                heappush(self._keys, key)
            else:
                b.append(entry)

    def push(self, entry: tuple) -> None:
        # _insert's body is inlined here: push runs once per scheduled
        # event and the extra frame is measurable on the engine benchmark.
        self._size += 1
        nxt = self._next
        if nxt is not None and entry < nxt:
            self._next = None
            self._insert(nxt)
        key = int(entry[0] * self._inv)
        if key <= self._cur_key:
            heappush(self._extra, entry)
        else:
            b = self._buckets.get(key)
            if b is None:
                self._buckets[key] = [entry]
                heappush(self._keys, key)
            else:
                b.append(entry)

    def _advance_raw(self) -> Optional[tuple]:
        extra = self._extra
        while True:
            cur = self._cur
            idx = self._idx
            if idx < len(cur):
                e = cur[idx]
                if extra and extra[0] < e:
                    return heappop(extra)
                self._idx = idx + 1
                return e
            if extra:
                return heappop(extra)
            if not self._keys:
                self._cur = []  # release the consumed bucket's events
                self._idx = 0
                return None
            k = heappop(self._keys)
            lst = self._buckets.pop(k)
            lst.sort()
            self._cur = lst
            self._idx = 0
            self._cur_key = k

    def peek_live(self) -> Optional[tuple]:
        e = self._next
        if e is not None:
            if not e[3].cancelled:
                return e
            self.dropped += 1
            self._size -= 1
            self._next = None
        while True:
            e = self._advance_raw()
            if e is None:
                return None
            if e[3].cancelled:
                self.dropped += 1
                self._size -= 1
                continue
            self._next = e
            return e

    def pop_live(self) -> Optional[tuple]:
        e = self.peek_live()
        self._next = None
        if e is not None:
            self._size -= 1
        return e

    def __len__(self) -> int:
        return self._size

    def live_count(self) -> int:
        n = 0
        if self._next is not None and not self._next[3].cancelled:
            n += 1
        for e in self._cur[self._idx:]:
            if not e[3].cancelled:
                n += 1
        for e in self._extra:
            if not e[3].cancelled:
                n += 1
        for bucket in self._buckets.values():
            for e in bucket:
                if not e[3].cancelled:
                    n += 1
        return n

    def drain(self, sim, registry) -> None:
        """Dispatch every remaining event in order (unbounded hot loop).

        ``self._idx`` and ``sim._now`` are republished before every
        callback so that ``schedule``/``peek``/``pending`` called from
        inside a callback observe a consistent calendar; the cheap
        aggregates (size, dropped, executed) are written back once in the
        ``finally`` block so an exception in a callback cannot desync them.
        """
        nxt = self._next
        if nxt is not None:
            self._next = None
            self._insert(nxt)
        buckets = self._buckets
        keys = self._keys
        pop = heappop
        cur = self._cur
        idx = self._idx
        extra = self._extra
        n = len(cur)
        executed = sim.events_executed
        dropped = 0
        consumed = 0
        if registry is None:
            try:
                while True:
                    if idx < n:
                        e = cur[idx]
                        if extra and extra[0] < e:
                            e = pop(extra)
                        else:
                            idx += 1
                    elif extra:
                        e = pop(extra)
                    elif keys:
                        k = pop(keys)
                        lst = buckets.pop(k)
                        lst.sort()
                        self._cur = cur = lst
                        self._idx = idx = 0
                        n = len(cur)
                        self._cur_key = k
                        continue
                    else:
                        # Dry: release the consumed bucket's events.
                        self._cur = cur = []
                        idx = 0
                        break
                    consumed += 1
                    h = e[3]
                    if h.cancelled:
                        dropped += 1
                        continue
                    h.fired = True
                    executed += 1
                    sim._now = e[0]
                    self._idx = idx
                    h.fn(*h.args)
            finally:
                self._idx = idx
                self._size -= consumed
                self.dropped += dropped
                sim.events_executed = executed
        else:
            sample = registry.sample_interval
            countdown = sim._sample_countdown
            ring = registry.ring("sim.dispatch_latency_s")
            perf_counter = time.perf_counter
            try:
                while True:
                    if idx < n:
                        e = cur[idx]
                        if extra and extra[0] < e:
                            e = pop(extra)
                        else:
                            idx += 1
                    elif extra:
                        e = pop(extra)
                    elif keys:
                        k = pop(keys)
                        lst = buckets.pop(k)
                        lst.sort()
                        self._cur = cur = lst
                        self._idx = idx = 0
                        n = len(cur)
                        self._cur_key = k
                        continue
                    else:
                        # Dry: release the consumed bucket's events.
                        self._cur = cur = []
                        idx = 0
                        break
                    consumed += 1
                    h = e[3]
                    if h.cancelled:
                        dropped += 1
                        continue
                    h.fired = True
                    executed += 1
                    sim._now = e[0]
                    self._idx = idx
                    countdown -= 1
                    if countdown:
                        h.fn(*h.args)
                    else:
                        countdown = sample
                        t0 = perf_counter()
                        h.fn(*h.args)
                        ring.record(perf_counter() - t0)
            finally:
                self._idx = idx
                self._size -= consumed
                self.dropped += dropped
                sim.events_executed = executed
                sim._sample_countdown = countdown


#: registered FEL backends, selectable via ``Simulator(fel="heap")``.
FEL_BACKENDS = {
    "heap": HeapFEL,
    "calendar": CalendarFEL,
}


def make_fel(spec):
    """Build a FEL from a backend name, class, or ready instance."""
    if isinstance(spec, str):
        try:
            return FEL_BACKENDS[spec]()
        except KeyError:
            raise ValueError(
                f"unknown FEL backend {spec!r}; choose from {sorted(FEL_BACKENDS)}"
            ) from None
    if isinstance(spec, type):
        return spec()
    return spec
