"""Performance instrumentation and the regression gate.

- :mod:`repro.perf.registry` — the :data:`~repro.perf.registry.PERF`
  singleton of counters, timers, and histograms that the simulator,
  clusters, policies, and experiment runners report into when enabled.
- :mod:`repro.perf.compare` — ``python -m repro.perf.compare BASE``: run
  ``perfbench/run.py`` paired on a base checkout and this one, and fail
  on a failed run or a metric worse than its ``BENCHMARK.json`` bound.

Instrumentation is off by default; see :func:`enable` /
:func:`capture`.  ``docs/benchmarking.md`` documents the workflow.
"""

from repro.perf.registry import (
    PERF,
    PerfRegistry,
    RingBuffer,
    StreamingStat,
    capture,
    disable,
    enable,
    is_enabled,
    reset,
    snapshot,
)

__all__ = [
    "PERF",
    "PerfRegistry",
    "RingBuffer",
    "StreamingStat",
    "capture",
    "disable",
    "enable",
    "is_enabled",
    "reset",
    "snapshot",
]
