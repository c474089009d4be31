"""Event-calendar simulator.

The simulator owns a monotonic clock and its future event list, one binary
heap.  Events scheduled for the same timestamp are ordered by ``priority``
then by insertion sequence, so runs are bit-for-bit reproducible regardless
of dict ordering or callback registration order.

Hot-path design (see ``docs/architecture.md``):

- the heap holds ``(time, priority, seq, handle)`` tuples — ordering happens
  through C-level tuple comparison, never through Python ``__lt__``;
- cancellation is lazy: a cancelled entry stays in the heap until it reaches
  the top, where it is popped and counted as dropped;
- an unbounded ``run()`` (no ``until``, no ``max_events``, no armed budget)
  takes the inlined :meth:`Simulator._drain` loop; bounded runs go through
  one scrub-peek-pop step per event;
- ``now`` is a plain attribute that the run loop writes and callers only
  read, so the policies' per-decision clock reads cost no call;
- perf instrumentation is *sampled*: with the registry enabled, dispatch
  latency is timed once every ``PERF.sample_interval`` events into a ring
  buffer, and the bulk counters (executed/scheduled/dropped) are flushed as
  deltas at run boundaries instead of being incremented per event.
"""

from __future__ import annotations

import math
import time
from heapq import heappop, heappush
from typing import Any, Callable, Optional

from repro.perf.registry import PERF
from repro.sim.events import EventHandle, Priority


class SimulationError(RuntimeError):
    """Raised on scheduling into the past or on a corrupted event list."""


class SimBudgetExceeded(SimulationError):
    """The watchdog budget tripped: the run executed more events (or
    advanced further in simulation time) than its budget allows.

    Raised *instead of spinning forever* on a pathological configuration;
    the event that would exceed the budget is left unexecuted, so the
    exception is catchable and the simulator state remains consistent.
    The experiment supervisor classifies it as a retryable timeout
    (:class:`repro.experiments.errors.RunTimeout`).
    """

    def __init__(self, message: str, budget: str = "") -> None:
        super().__init__(message)
        self.budget = budget  #: which budget tripped, e.g. "max_events=1000"


class Simulator:
    """A deterministic discrete-event simulator.

    The future event list is one binary heap of ``(time, priority, seq,
    handle)`` tuples.  ``fel`` selects nothing: it accepts only ``"heap"``,
    so callers that name the heap explicitly keep working, and any other
    value raises :class:`ValueError`.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(5.0, fired.append, "a")
    >>> _ = sim.schedule(2.0, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    5.0
    """

    def __init__(
        self,
        start: float = 0.0,
        fel: str = "heap",
    ) -> None:
        if fel != "heap":
            raise ValueError(
                f"unknown event list {fel!r}; the simulator has one binary heap"
            )
        #: current simulation time.  A plain attribute, not a property,
        #: because the hot paths above the event list read it once per
        #: decision; only the run loop writes it, callers only read it.
        self.now = float(start)
        self._heap: list = []
        self._seq = 0
        self._running = False
        self.events_executed = 0
        self.events_scheduled = 0
        self._dropped = 0  # cancelled entries popped unexecuted
        # Watchdog budgets (see set_budget); _budget_active routes budgeted
        # runs through the bounded loop, keeping the drain path check-free.
        self._budget_events: Optional[int] = None
        self._budget_time: Optional[float] = None
        self._budget_active = False
        # Single-attribute alias so instrumentation checks are one load +
        # one falsy test (see repro.perf.registry).
        self._perf = PERF
        # Sampled-instrumentation state: dispatch latency is timed when the
        # countdown hits zero, then the countdown reloads from
        # PERF.sample_interval.  Starts at 1 so the first dispatch of an
        # enabled run is always sampled (deterministic for tests).
        self._sample_countdown = 1
        # Flush watermarks: totals already folded into the perf registry.
        self._flushed_executed = 0
        self._flushed_scheduled = 0
        self._flushed_dropped = 0

    def set_budget(
        self,
        max_events: Optional[int] = None,
        max_sim_time: Optional[float] = None,
    ) -> None:
        """Arm (or disarm) the watchdog.

        ``max_events`` caps the total events executed over the simulator's
        lifetime; ``max_sim_time`` caps how far the clock may advance.  When
        the *next* event would exceed either budget, :meth:`step` raises
        :class:`SimBudgetExceeded` before executing it — a hung scenario
        becomes a classified, catchable failure instead of a dead worker.
        Passing ``None`` for both disarms the watchdog.  Arm budgets before
        calling :meth:`run`: an unbudgeted run drains through the fast path,
        which does not re-check mid-run.
        """
        if max_events is not None and max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        if max_sim_time is not None and max_sim_time <= 0:
            raise ValueError(f"max_sim_time must be positive, got {max_sim_time}")
        self._budget_events = max_events
        self._budget_time = max_sim_time
        self._budget_active = max_events is not None or max_sim_time is not None

    def _check_budget(self, next_time: float) -> None:
        if self._budget_events is not None and self.events_executed >= self._budget_events:
            if self._perf.enabled:
                self._perf.incr("sim.budget_exceeded")
            raise SimBudgetExceeded(
                f"event budget exhausted after {self.events_executed} events "
                f"(sim time {self.now:.1f})",
                budget=f"max_events={self._budget_events}",
            )
        if self._budget_time is not None and next_time > self._budget_time:
            if self._perf.enabled:
                self._perf.incr("sim.budget_exceeded")
            raise SimBudgetExceeded(
                f"sim-time budget exhausted: next event at t={next_time:.1f} "
                f"exceeds {self._budget_time:.1f}",
                budget=f"max_sim_time={self._budget_time}",
            )

    def _reject_time(self, time: float) -> None:
        """Raise the right SimulationError for a NaN or in-the-past time."""
        if math.isnan(time):
            raise SimulationError("cannot schedule an event at time NaN")
        raise SimulationError(
            f"cannot schedule into the past: t={time} < now={self.now}"
        )

    def schedule(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = Priority.INTERNAL,
    ) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` time units from now.

        The body deliberately mirrors :meth:`schedule_at` instead of
        delegating: this is the per-event allocation path, and the extra
        frame plus ``*args`` repack showed up in the engine benchmark.
        The single ``t >= now`` test covers both NaN (all comparisons
        false) and into-the-past times; the cold path sorts out which.
        """
        now = self.now
        t = now + delay
        if not t >= now:
            self._reject_time(t)
        seq = self._seq
        self._seq = seq + 1
        self.events_scheduled += 1
        handle = EventHandle(t, priority, seq, fn, args)
        heappush(self._heap, (t, priority, seq, handle))
        return handle

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = Priority.INTERNAL,
    ) -> EventHandle:
        """Schedule ``fn(*args)`` at an absolute simulation time."""
        t = time + 0.0  # normalise ints without a float() call
        if not t >= self.now:
            self._reject_time(t)
        seq = self._seq
        self._seq = seq + 1
        self.events_scheduled += 1
        handle = EventHandle(t, priority, seq, fn, args)
        heappush(self._heap, (t, priority, seq, handle))
        return handle

    def reserve_seqs(self, n: int) -> int:
        """Consume ``n`` insertion-sequence numbers; returns the first.

        For a component that tracks many pending deadlines but keeps only
        the earliest in the event list (the time-shared cluster's single
        completion timer): it draws each deadline's tie-break here, as if
        it had scheduled one event per deadline, and arms its timer with
        :meth:`schedule_reserved` under the earliest one's number.  Every
        event therefore keeps the sequence number, and so the same-instant
        order, it would have had with one event per deadline.
        """
        seq = self._seq
        self._seq = seq + n
        return seq

    def schedule_reserved(
        self,
        time: float,
        seq: int,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = Priority.INTERNAL,
    ) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute ``time`` under a sequence
        number drawn earlier from :meth:`reserve_seqs`."""
        t = time + 0.0
        if not t >= self.now:
            self._reject_time(t)
        if not 0 <= seq < self._seq:
            raise SimulationError(f"sequence number {seq} was never reserved")
        self.events_scheduled += 1
        handle = EventHandle(t, priority, seq, fn, args)
        heappush(self._heap, (t, priority, seq, handle))
        return handle

    def cancel(self, handle: EventHandle) -> bool:
        """Cancel a pending event.

        Returns ``True`` when the event was live and is now cancelled.
        Cancelling a handle that already fired, or one cancelled before, is
        a safe no-op returning ``False`` — heavy cancellers (the fault
        injector, cluster reschedules) can never corrupt the event list or
        the cancelled-event accounting by cancelling twice or too late.
        """
        return handle.cancel()

    def _head(self) -> Optional[tuple]:
        """The next live entry, left in place; cancelled entries on top of
        the heap are popped and counted as dropped on the way."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if not entry[3].cancelled:
                return entry
            heappop(heap)
            self._dropped += 1
        return None

    def peek(self) -> Optional[float]:
        """Time of the next pending event, or ``None`` if the list is empty."""
        entry = self._head()
        return entry[0] if entry is not None else None

    def _dispatch(self, entry: tuple, registry) -> None:
        """Execute one popped entry (bounded-path only; drain inlines this)."""
        handle = entry[3]
        if entry[0] < self.now:  # pragma: no cover - defensive
            raise SimulationError("event list corrupted: time went backwards")
        self.now = entry[0]
        handle.fired = True
        self.events_executed += 1
        if registry is not None:
            countdown = self._sample_countdown - 1
            if countdown:
                self._sample_countdown = countdown
                handle.fn(*handle.args)
            else:
                self._sample_countdown = registry.sample_interval
                t0 = time.perf_counter()
                handle.fn(*handle.args)
                registry.ring("sim.dispatch_latency_s").record(
                    time.perf_counter() - t0
                )
        else:
            handle.fn(*handle.args)

    def step(self) -> bool:
        """Execute the next pending event.

        Returns ``True`` if an event ran, ``False`` if the event list was
        empty.  Unlike :meth:`run`, counters are flushed to the perf
        registry after every step, so single-stepping code observes
        up-to-date metrics.
        """
        try:
            entry = self._head()
            if entry is None:
                return False
            if self._budget_active:
                self._check_budget(entry[0])
            heappop(self._heap)
            self._dispatch(entry, self._perf if self._perf.enabled else None)
            return True
        finally:
            self._flush_perf()

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Run until the event list drains, ``until`` is reached, or
        ``max_events`` have executed.

        With ``until`` set, events at exactly ``until`` are still executed
        and the clock is advanced to ``until`` even if the list drains early.
        """
        if self._running:
            raise SimulationError("simulator is not re-entrant")
        self._running = True
        registry = self._perf if self._perf.enabled else None
        try:
            if until is None and max_events is None and not self._budget_active:
                self._drain(registry)
            else:
                self._run_bounded(until, max_events, registry)
        finally:
            self._running = False
            self._flush_perf()
        if until is not None and self.now < until:
            self.now = float(until)

    def _run_bounded(
        self,
        until: Optional[float],
        max_events: Optional[int],
        registry,
    ) -> None:
        """Run loop honouring ``until``/``max_events``/budgets: the bound
        checks read the live head in place, and only then is it popped."""
        heap = self._heap
        executed = 0
        budgeted = self._budget_active
        while True:
            if max_events is not None and executed >= max_events:
                break
            entry = self._head()
            if entry is None:
                break
            if until is not None and entry[0] > until:
                break
            if budgeted:
                self._check_budget(entry[0])
            heappop(heap)
            self._dispatch(entry, registry)
            executed += 1

    def _drain(self, registry) -> None:
        """Dispatch every remaining event in order (the unbounded hot loop).

        Everything lives in locals and is written back in a ``finally``, so
        an exception from a callback leaves consistent state.  The disabled
        loop does no per-event instrumentation; the enabled one times one
        dispatch in every ``registry.sample_interval``.
        """
        heap = self._heap
        pop = heappop
        executed = self.events_executed
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
                    self.now = e[0]
                    h.fn(*h.args)
            finally:
                self._dropped += dropped
                self.events_executed = executed
        else:
            sample = registry.sample_interval
            countdown = self._sample_countdown
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
                    self.now = e[0]
                    countdown -= 1
                    if countdown:
                        h.fn(*h.args)
                    else:
                        countdown = sample
                        t0 = perf_counter()
                        h.fn(*h.args)
                        ring.record(perf_counter() - t0)
            finally:
                self._dropped += dropped
                self.events_executed = executed
                self._sample_countdown = countdown

    def _flush_perf(self) -> None:
        """Fold counter deltas since the last flush into the registry.

        Watermarks advance even while the registry is disabled, so activity
        from a disabled period is discarded rather than attributed to the
        next enabled window.
        """
        d_exec = self.events_executed - self._flushed_executed
        d_sched = self.events_scheduled - self._flushed_scheduled
        d_drop = self._dropped - self._flushed_dropped
        if d_exec:
            self._flushed_executed = self.events_executed
        if d_sched:
            self._flushed_scheduled = self.events_scheduled
        if d_drop:
            self._flushed_dropped = self._dropped
        perf = self._perf
        if perf.enabled:
            if d_exec:
                perf.incr("sim.events_executed", d_exec)
            if d_sched:
                perf.incr("sim.events_scheduled", d_sched)
            if d_drop:
                perf.incr("sim.cancelled_dropped", d_drop)
            perf.observe("sim.fel_depth", len(self._heap))

    def pending(self) -> int:
        """Number of live (non-cancelled) events in the list."""
        return sum(not entry[3].cancelled for entry in self._heap)
