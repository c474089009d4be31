"""Lightweight performance registry: named counters, timers, histograms.

The registry is a process-wide singleton (:data:`PERF`) that is **disabled
by default**.  Every instrumentation site in the hot paths guards itself
with a single ``if PERF.enabled:`` branch, so the disabled path costs one
attribute load and a falsy test per event, which stays under the 5 %
budget on raw engine throughput (``tests/smoke/test_microbench.py``).

Three primitive kinds:

- **counters** — monotonically increasing integers/floats
  (``events_executed``, ``cancelled_dropped``, ``policy.decisions`` …).
- **timers** — accumulated wall-clock time per name, recorded either via
  the :meth:`PerfRegistry.timeit` context manager or :meth:`add_time`.
- **histograms** — streaming summaries (count/mean/min/max/std) of
  per-observation values such as FEL depth at run boundaries.
  No buckets are kept; the footprint per name is five floats.
- **rings** — fixed-capacity ring buffers of *sampled* observations
  (``sim.dispatch_latency_s`` …).  Hot paths record one observation every
  :attr:`PerfRegistry.sample_interval` events, so the instrumented cost is
  amortised to a fraction of a ``perf_counter()`` call per event while the
  ring keeps both lifetime aggregates and the most recent window.

Registry methods always record when called directly — the *callers* are
responsible for the ``enabled`` guard.  That keeps tests and the benchmark
harness free to use the primitives without flipping the global switch.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from typing import Iterator, Optional


class StreamingStat:
    """Constant-space summary of a stream of observations.

    The spread is Welford's update (a running mean and ``m2``, the sum of
    squared deviations from it), so σ does not cancel on a stream of
    large or equal values; :attr:`mean` stays ``total / count``.
    """

    __slots__ = ("count", "total", "_mean", "_m2", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def std(self) -> float:
        """The population standard deviation (0 below two observations)."""
        return math.sqrt(self._m2 / self.count) if self._m2 > 0.0 else 0.0

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "std": self.std,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
        }


class RingBuffer:
    """Fixed-capacity buffer of sampled observations.

    Keeps lifetime aggregates (``count``/``total``) for every value ever
    recorded plus the most recent ``capacity`` raw values, oldest first.
    Recording is O(1) with no allocation once the buffer is warm, which is
    what lets the engine keep latency sampling on the hot path.
    """

    __slots__ = ("capacity", "count", "total", "_buf", "_pos")

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.count = 0  #: total observations ever recorded
        self.total = 0.0  #: sum of all observations ever recorded
        self._buf: list[float] = []
        self._pos = 0

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        buf = self._buf
        if len(buf) < self.capacity:
            buf.append(value)
        else:
            buf[self._pos] = value
            self._pos = (self._pos + 1) % self.capacity

    @property
    def mean(self) -> float:
        """Lifetime mean over every recorded value (not just the window)."""
        return self.total / self.count if self.count else 0.0

    def values(self) -> list[float]:
        """The retained window, oldest observation first."""
        buf = self._buf
        if len(buf) < self.capacity:
            return list(buf)
        return buf[self._pos:] + buf[: self._pos]

    def as_dict(self) -> dict:
        window = self.values()
        return {
            "count": self.count,
            "mean": self.mean,
            "window": len(window),
            "window_min": min(window) if window else 0.0,
            "window_max": max(window) if window else 0.0,
            "last": window[-1] if window else 0.0,
        }


class PerfRegistry:
    """A named collection of counters, timers, histograms, and rings."""

    __slots__ = (
        "enabled",
        "sample_interval",
        "counters",
        "timers",
        "histograms",
        "rings",
        "_started",
    )

    def __init__(self) -> None:
        self.enabled = False
        #: hot paths time one event in every ``sample_interval`` when
        #: enabled; tests may set it to 1 to observe every event.
        self.sample_interval = 64
        self.counters: dict[str, float] = {}
        self.timers: dict[str, StreamingStat] = {}
        self.histograms: dict[str, StreamingStat] = {}
        self.rings: dict[str, RingBuffer] = {}
        self._started = time.monotonic()

    # -- recording -----------------------------------------------------------
    def incr(self, name: str, n: float = 1) -> None:
        """Add ``n`` to counter ``name`` (creating it at zero)."""
        self.counters[name] = self.counters.get(name, 0) + n

    def observe(self, name: str, value: float) -> None:
        """Record one histogram observation."""
        stat = self.histograms.get(name)
        if stat is None:
            stat = self.histograms[name] = StreamingStat()
        stat.observe(value)

    def ring(self, name: str, capacity: int = 256) -> RingBuffer:
        """Get (or create) the ring buffer for sampled series ``name``."""
        ring = self.rings.get(name)
        if ring is None:
            ring = self.rings[name] = RingBuffer(capacity)
        return ring

    def merge_counters(self, deltas: dict) -> None:
        """Fold another registry's counter deltas into this one.

        Used by the experiment pipeline to surface worker-process activity
        (simulated jobs, engine events) in the parent's registry, which
        otherwise only sees its own dispatch bookkeeping.
        """
        for name, value in deltas.items():
            if value:
                self.counters[name] = self.counters.get(name, 0) + value

    def add_time(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` of wall-clock time under timer ``name``."""
        stat = self.timers.get(name)
        if stat is None:
            stat = self.timers[name] = StreamingStat()
        stat.observe(seconds)

    @contextmanager
    def timeit(self, name: str) -> Iterator[None]:
        """Time a block of code under timer ``name``."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - t0)

    # -- lifecycle -----------------------------------------------------------
    def reset(self) -> None:
        """Drop all recorded data (the ``enabled`` flag is untouched)."""
        self.counters.clear()
        self.timers.clear()
        self.histograms.clear()
        self.rings.clear()
        self._started = time.monotonic()

    @property
    def elapsed(self) -> float:
        """Wall-clock seconds since construction or the last :meth:`reset`."""
        return time.monotonic() - self._started

    # -- reporting -----------------------------------------------------------
    def snapshot(self) -> dict:
        """A plain-dict view of everything recorded (JSON-serialisable)."""
        return {
            "enabled": self.enabled,
            "elapsed_s": self.elapsed,
            "counters": dict(self.counters),
            "timers": {k: v.as_dict() for k, v in self.timers.items()},
            "histograms": {k: v.as_dict() for k, v in self.histograms.items()},
            "rings": {k: v.as_dict() for k, v in self.rings.items()},
        }

    def rate(self, name: str, elapsed: Optional[float] = None) -> float:
        """Counter ``name`` per wall-clock second (0 if never recorded)."""
        window = self.elapsed if elapsed is None else elapsed
        if window <= 0.0:
            return 0.0
        return self.counters.get(name, 0) / window


#: The process-wide registry every instrumentation hook reports into.
PERF = PerfRegistry()


def enable() -> None:
    """Turn the instrumentation hooks on."""
    PERF.enabled = True


def disable() -> None:
    """Turn the instrumentation hooks off (recorded data is kept)."""
    PERF.enabled = False


def is_enabled() -> bool:
    return PERF.enabled


def snapshot() -> dict:
    return PERF.snapshot()


def reset() -> None:
    PERF.reset()


@contextmanager
def capture(reset_first: bool = True) -> Iterator[PerfRegistry]:
    """Enable instrumentation for a block and yield the registry.

    The previous ``enabled`` state is restored on exit; with
    ``reset_first`` (the default) the block starts from empty metrics so
    the snapshot afterwards describes exactly the work done inside.
    """
    previous = PERF.enabled
    if reset_first:
        PERF.reset()
    PERF.enabled = True
    try:
        yield PERF
    finally:
        PERF.enabled = previous
