"""Deterministic worker crashes for the execution supervisor's survival tests.

The supervisor's guarantees — a grid survives SIGKILLed workers, a killed
multi-run batch is split uncharged, an orphaned farm lease is stolen — are
only testable if something kills a worker.  This module is that something,
and it lives with the tests: the program has no crash switch of its own.

- :func:`crashing_units` patches ``pipeline._worker`` so a unit SIGKILLs
  its pool worker before it runs; :func:`crashing_batches` patches
  ``pipeline._worker_batch`` so a worker dies holding a whole multi-run
  batch (the shape of a fault-domain outage).  Both are installed before
  ``execute_plan`` forks its pool, and the forked workers inherit them.
- Run as a script, ``python tests/crashkit.py CRASH_DIR BUDGET ARGS...``
  is ``repro ARGS...`` with ``WorkerAgent.run_unit`` wrapped to crash
  after the lease is claimed and before the unit runs, leaving exactly the
  orphaned lease the farm's stealing protocol exists for.

Each crashed item leaves one marker in the crash directory
(``<digest>.killed``, or ``<first-digest>.batchkilled`` for a batch), so a
resubmitted item runs normally.  The budget is ``kill-slot-<i>`` /
``batch-slot-<i>`` files, each claimed with ``O_EXCL`` before the marker
is written, so concurrent workers never crash more often than it allows.
"""

from __future__ import annotations

import functools
import os
import signal
import sys
from contextlib import contextmanager


def crash_unit(crash_dir, budget: int, digest: str) -> None:
    """SIGKILL this process once per ``digest``, at most ``budget`` times."""
    _crash_once(crash_dir, f"{digest}.killed", "kill", budget)


def crash_batch(crash_dir, budget: int, digests) -> None:
    """SIGKILL this process while it holds a multi-run batch.

    Singleton batches never crash here: after the supervisor splits a
    killed batch, the singleton reruns must proceed, so a budget of 1
    kills exactly one batch per grid.
    """
    if len(digests) > 1:
        _crash_once(crash_dir, f"{digests[0]}.batchkilled", "batch", budget)


def _create_exclusive(path: str) -> bool:
    """Create ``path`` atomically; False if it already exists."""
    try:
        os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return False
    return True


def _crash_once(crash_dir, marker: str, kind: str, budget: int) -> None:
    """SIGKILL this process unless ``marker`` exists or ``budget`` is spent.

    A slot is claimed *before* the marker is written: counting markers
    first and creating one after let two workers both pass the check.
    """
    marker = os.path.join(crash_dir, marker)
    if os.path.exists(marker):
        return  # this item already took its crash; run normally
    if not any(
        _create_exclusive(os.path.join(crash_dir, f"{kind}-slot-{i}"))
        for i in range(budget)
    ):
        return  # budget spent
    if _create_exclusive(marker):
        os.kill(os.getpid(), signal.SIGKILL)


@contextmanager
def _patched(name: str, crash):
    """Within the block, ``pipeline.<name>`` calls ``crash(first_arg)`` first.

    ``functools.wraps`` gives the wrapper the original's module and
    qualified name, so the pool pickles it by reference and a forked
    worker resolves that reference to the wrapper it inherited.
    """
    from repro.experiments import pipeline

    original = getattr(pipeline, name)

    @functools.wraps(original)
    def crashing(first, *args):
        crash(first)
        return original(first, *args)

    setattr(pipeline, name, crashing)
    try:
        yield
    finally:
        setattr(pipeline, name, original)


def crashing_units(crash_dir, budget: int):
    """Within the block, up to ``budget`` distinct units kill their worker."""
    return _patched("_worker", lambda unit: crash_unit(crash_dir, budget, unit.digest))


def crashing_batches(crash_dir, budget: int):
    """Within the block, up to ``budget`` multi-run batches kill their worker."""
    return _patched(
        "_worker_batch",
        lambda units: crash_batch(crash_dir, budget, [unit.digest for unit in units]),
    )


def main(argv: list[str]) -> int:
    """``repro argv[2:]`` whose farm worker crashes on claimed units."""
    from repro.cli import main as repro_main
    from repro.farm.worker import WorkerAgent

    crash_dir, budget, args = argv[0], int(argv[1]), argv[2:]
    run_unit = WorkerAgent.run_unit

    def crashing(self, claimed):
        crash_unit(crash_dir, budget, claimed.digest)
        return run_unit(self, claimed)

    WorkerAgent.run_unit = crashing
    return repro_main(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
