"""Deterministic crash injection for testing the execution supervisor.

The resilience guarantees of :mod:`repro.experiments.pipeline` — a grid
survives SIGKILLed workers — are only testable if something actually
kills a worker.  This module is that something: a worker calls
:func:`maybe_crash` before simulating, and when chaos is armed via
environment variables the process SIGKILLs *itself*, exactly once per
work item, so retries then succeed and the test can assert bit-identical
recovery.

Chaos is armed by exporting both variables (the pool's workers inherit
the parent's environment):

``REPRO_CHAOS_DIR``
    A scratch directory for once-only markers.  One ``<digest>.killed``
    marker is created (atomically, ``O_EXCL``) per crashed item, so a
    resubmitted run of the same digest proceeds normally.  Budgets are
    held as ``kill-slot-<i>`` / ``batch-slot-<i>`` files, each claimed
    atomically before a crash.
``REPRO_CHAOS_KILL``
    Maximum number of distinct work items to crash (an integer budget).
``REPRO_CHAOS_BATCH``
    Maximum number of *multi-run batches* to crash (an integer budget,
    independent of ``REPRO_CHAOS_KILL``).  :func:`maybe_crash_batch`
    fires while the worker holds a whole batch of runs — the correlated
    analogue of a single-item crash, modelling a fault domain taking out
    every run a worker carried at once.  The supervisor must then split
    the batch into singletons without charging the innocent runs.

Unset (the default everywhere outside the chaos tests and the CI
``chaos-smoke`` job), :func:`maybe_crash` is a single dict lookup.
"""

from __future__ import annotations

import os
import signal

ENV_DIR = "REPRO_CHAOS_DIR"
ENV_KILL = "REPRO_CHAOS_KILL"
ENV_BATCH = "REPRO_CHAOS_BATCH"


def maybe_crash(digest: str) -> None:
    """SIGKILL this process if chaos is armed and the budget allows it."""
    chaos_dir = os.environ.get(ENV_DIR)
    if not chaos_dir:
        return
    try:
        budget = int(os.environ.get(ENV_KILL, "0"))
    except ValueError:
        return
    if budget <= 0 or not os.path.isdir(chaos_dir):
        return
    _crash_once(chaos_dir, f"{digest}.killed", "kill", budget)


def maybe_crash_batch(digests: list[str]) -> None:
    """SIGKILL this process while it holds a whole multi-run batch.

    Armed via ``REPRO_CHAOS_BATCH`` (plus the shared ``REPRO_CHAOS_DIR``);
    one ``<first-digest>.batchkilled`` marker makes each batch crash at
    most once.  Singleton batches never crash here — after the supervisor
    splits a killed batch, the singleton reruns must proceed — so a
    budget of 1 kills exactly one correlated batch per grid.
    """
    chaos_dir = os.environ.get(ENV_DIR)
    if not chaos_dir or len(digests) < 2:
        return
    try:
        budget = int(os.environ.get(ENV_BATCH, "0"))
    except ValueError:
        return
    if budget <= 0 or not os.path.isdir(chaos_dir):
        return
    _crash_once(chaos_dir, f"{digests[0]}.batchkilled", "batch", budget)


def _create_exclusive(path: str) -> bool:
    """Create ``path`` atomically; False if it already exists."""
    try:
        os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return False
    return True


def _crash_once(chaos_dir: str, marker: str, kind: str, budget: int) -> None:
    """SIGKILL this process unless ``marker`` exists or ``budget`` is spent.

    The budget is ``budget`` slot files claimed with ``O_EXCL`` *before* the
    marker is written, so concurrent workers can never crash more often
    than the budget allows (counting markers first and creating one after
    let two workers both pass the check).
    """
    marker = os.path.join(chaos_dir, marker)
    if os.path.exists(marker):
        return  # this item already took its crash; run normally
    if not any(
        _create_exclusive(os.path.join(chaos_dir, f"{kind}-slot-{i}"))
        for i in range(budget)
    ):
        return  # budget spent
    if _create_exclusive(marker):
        os.kill(os.getpid(), signal.SIGKILL)
