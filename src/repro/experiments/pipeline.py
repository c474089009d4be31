"""The unified experiment pipeline: plan → execute → assemble.

Every study drives the same three stages over
:class:`~repro.experiments.runstore.Unit` s — grid cells
(:class:`~repro.experiments.runstore.RunKey`, from ``run_grid``,
``run_fault_sweep``, ``run_replicated``, ``tornado_analysis``,
``generate_report``) and market runs
(:class:`~repro.experiments.marketsweep.MarketConfig`, from
``run_market_sweep``) alike:

1. :func:`grid_plan` (or any list of units) enumerates the *logical
   accesses* of an experiment in a deterministic order — duplicates
   included, because hit/miss accounting is defined per access.
2. :func:`execute_plan` dedupes the whole plan against a
   :class:`~repro.experiments.runstore.RunStore`, optionally keeps only
   one shard of the misses (``shard=(i, n)`` for multi-machine fan-out),
   executes the remainder serially or over a process pool (in *batches*
   — one future per chunk of units, forked workers inheriting the warmed
   trace memo — so dispatch overhead is amortised), and checkpoints
   completed units to the store as each unit (serial) or batch (pool)
   finishes — an interrupted study therefore resumes by construction.
3. :func:`assemble_grid` (or a study's own assembler, such as
   ``assemble_fault_sweep`` on top of it) re-reads the store; for a grid
   it reduces to a
   :class:`~repro.experiments.runner.GridAnalysis` exactly as the serial
   runner always has (per-scenario normalisation, Eqs. 5–6), so serial,
   parallel, sharded, and resumed executions of the same plan are
   bit-identical.

Execution is *supervised* (see :class:`ExecutionPolicy`): every run gets
a wall-clock budget and a simulation watchdog, failures are classified
into the :mod:`repro.experiments.errors` taxonomy and retried with
jittered exponential backoff, a SIGKILLed worker only costs the in-flight
runs (the pool is rebuilt and they are resubmitted), and runs that
exhaust their retries are journaled in the store's ``failures.jsonl``
instead of aborting the grid.  :func:`assemble_grid` can then either
refuse the incomplete store (the default) or degrade gracefully,
marking the missing cells as explicit gaps.

Units are pure functions of their digest, which is what makes all of
this sound: the store can replay any subset in any order.
"""

from __future__ import annotations

import heapq
import math
import os
import random
import signal
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.core.normalize import normalize_runs
from repro.core.objectives import Objective, ObjectiveSet
from repro.core.separate import SeparateRisk, separate_risk
from repro.experiments.errors import (
    FailureRecord,
    RunCrashed,
    RunError,
    RunTimeout,
    classify_failure,
    error_from_dict,
)
from repro.experiments.runstore import RunKey, RunStore, StoreError, Unit
from repro.experiments.scenarios import SCENARIOS, ExperimentConfig, Scenario
from repro.perf.registry import PERF

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

#: perf counter per failure kind.
_KIND_COUNTERS = {
    "timeout": "pipeline.run_timeouts",
    "crash": "pipeline.run_crashes",
    "failure": "pipeline.run_failures",
}


def default_workers() -> int:
    """A sensible pool size: physical parallelism minus one for the parent."""
    return max((os.cpu_count() or 2) - 1, 1)


def grid_plan(
    policies: Sequence[str],
    model_name: str,
    base: ExperimentConfig,
    set_name: str = "A",
    scenarios: Sequence[Scenario] = SCENARIOS,
) -> list[RunKey]:
    """The logical accesses of one Table VI grid, in deterministic order.

    The default configuration appears in every scenario, so the plan
    contains far more accesses than unique keys — :func:`execute_plan`
    dedupes and accounts for exactly that.
    """
    base = base.for_set(set_name)
    return [
        RunKey(config, policy, model_name)
        for scenario in scenarios
        for config in scenario.configs(base)
        for policy in policies
    ]


@dataclass(frozen=True)
class ExecutionPolicy:
    """Supervision knobs of one :func:`execute_plan` call.

    The defaults supervise without constraining: no wall-clock or
    watchdog budget, up to two retries per failing run.  ``clock`` and
    ``sleep`` are injectable so the backoff schedule is unit-testable
    with a fake clock.
    """

    #: wall-clock seconds one run may take before it is timed out
    #: (enforced in-worker via ``SIGALRM`` on the pool path and, where the
    #: interpreter allows signal handlers, on the serial path too).
    run_timeout: Optional[float] = None
    #: additional attempts granted after the first failed one.
    max_retries: int = 2
    #: first retry waits ~``backoff_base`` seconds; each further retry
    #: doubles it, capped at ``backoff_cap``, jittered to 50–150 %.
    backoff_base: float = 0.5
    backoff_cap: float = 30.0
    #: simulation watchdog budgets handed to every ``Unit.execute``.
    max_sim_events: Optional[int] = None
    max_sim_time: Optional[float] = None
    #: what a caller should do with journaled failures: ``"abort"`` raises
    #: :class:`~repro.experiments.errors.GridExecutionError`, ``"degrade"``
    #: assembles around the gaps.  :func:`execute_plan` itself always
    #: completes the plan either way — the journal should be complete.
    on_error: str = "abort"
    #: supervisor poll granularity (straggler deadline checks), seconds.
    poll_interval: float = 0.25
    #: runs dispatched to a pool worker per submission.  ``None`` sizes
    #: batches automatically (four batches per worker), amortising the
    #: per-future pickling/IPC round trip that made small grids slower in
    #: parallel than serial.  ``1`` restores one-future-per-run dispatch.
    batch_size: Optional[int] = None
    clock: Callable[[], float] = time.monotonic
    sleep: Callable[[float], None] = time.sleep

    def __post_init__(self) -> None:
        if self.on_error not in ("abort", "degrade"):
            raise ValueError(f"on_error must be 'abort' or 'degrade', got {self.on_error!r}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.run_timeout is not None and self.run_timeout <= 0:
            raise ValueError(f"run_timeout must be positive, got {self.run_timeout}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")

    @property
    def max_attempts(self) -> int:
        return self.max_retries + 1

    def backoff_delay(self, digest: str, attempt: int) -> float:
        """Jittered exponential backoff before retrying ``digest``.

        ``attempt`` is the number of attempts already made (>= 1).  The
        jitter is a pure function of (digest, attempt), so reruns are
        reproducible and concurrent retries of different cells decorrelate.
        """
        base = min(self.backoff_cap, self.backoff_base * (2 ** (attempt - 1)))
        jitter = random.Random(f"{digest}:{attempt}").random()
        return base * (0.5 + jitter)

    def straggler_deadline(self) -> Optional[float]:
        """Wall-clock budget after which the *supervisor* declares a run
        hung (the in-worker alarm plus scheduling/serialisation grace)."""
        if self.run_timeout is None:
            return None
        return self.run_timeout * 1.5 + 5.0


DEFAULT_EXECUTION = ExecutionPolicy()


@dataclass(frozen=True)
class PlanExecution:
    """What one :func:`execute_plan` call did."""

    accesses: int  #: logical accesses in the plan (duplicates included)
    hits: int  #: accesses served by the store (memory or disk)
    misses: int  #: unique units that needed executing
    executed: int  #: units executed by this call (== misses unless sharded)
    deferred: int  #: misses left to other shards
    wall_s: float
    #: digests that exhausted their retries (journaled in the store).
    failed: tuple[str, ...] = ()
    #: resubmissions performed by the supervisor (retries + crash recovery).
    retries: int = 0

    @property
    def complete(self) -> bool:
        """True when every miss was simulated (nothing left to a peer shard
        and nothing journaled as failed)."""
        return self.deferred == 0 and not self.failed


def _parse_shard(shard: Optional[tuple[int, int]]) -> Optional[tuple[int, int]]:
    if shard is None:
        return None
    index, count = shard
    if count < 1 or not 0 <= index < count:
        raise ValueError(f"shard must satisfy 0 <= i < n, got {index}/{count}")
    return index, count


@contextmanager
def _wall_clock_limit(seconds: Optional[float]):
    """Raise :class:`RunTimeout` when the body runs longer than ``seconds``.

    Uses ``SIGALRM`` (via ``setitimer``), so it only arms in a main
    thread on platforms that have it; elsewhere it is a no-op and the
    supervisor's straggler deadline is the only wall-clock enforcement.
    """
    if (
        not seconds
        or not hasattr(signal, "setitimer")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _alarm(signum, frame):
        raise RunTimeout(
            f"run exceeded its wall-clock budget of {seconds:g}s",
            budget=f"run_timeout={seconds:g}",
        )

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _worker(
    unit: Unit,
    run_timeout: Optional[float] = None,
    max_sim_events: Optional[int] = None,
    max_sim_time: Optional[float] = None,
) -> tuple[object, Optional[dict], Optional[dict]]:
    """Execute one unit in a worker process.

    Returns ``(result, perf_delta, error)``: exactly one of ``result`` /
    ``error`` is set.  Failures come back as *data*
    (:meth:`RunError.to_dict`) rather than raised exceptions, so the
    parent never depends on cross-process exception pickling; a raised
    :class:`BrokenProcessPool` therefore always means the process died.
    ``perf_delta`` is the per-unit delta of the worker's perf counters
    (when the registry is enabled there) so the parent can fold
    worker-side activity back into its own registry.
    """
    before = dict(PERF.counters) if PERF.enabled else None
    error: Optional[dict] = None
    result = None
    try:
        with _wall_clock_limit(run_timeout):
            result = unit.execute(max_sim_events, max_sim_time)
    except KeyboardInterrupt:
        raise
    except Exception as exc:
        error = classify_failure(exc).to_dict()
    delta = None
    if before is not None:
        delta = {
            name: value - before.get(name, 0)
            for name, value in PERF.counters.items()
            if value != before.get(name, 0)
        }
    return result, delta, error


def _worker_batch(
    units: Sequence[Unit],
    run_timeout: Optional[float] = None,
    max_sim_events: Optional[int] = None,
    max_sim_time: Optional[float] = None,
) -> list[tuple[object, Optional[dict], Optional[dict]]]:
    """Execute a batch of units in one worker process.

    One future per batch instead of one per unit: the per-unit
    :func:`_worker` semantics (wall-clock alarm, error-as-data, perf
    delta) are unchanged, but the pickling/IPC round trip is paid once
    per batch.  A worker that dies mid-batch loses the whole batch's
    results — the supervisor splits the batch into singletons to isolate
    the culprit, so a unit is never charged an attempt for a batchmate's
    crash.
    """
    return [_worker(unit, run_timeout, max_sim_events, max_sim_time) for unit in units]


def _chunk_batches(
    mine: Sequence[tuple[Unit, str]],
    n_workers: int,
    policy: ExecutionPolicy,
) -> list[list[tuple[Unit, str]]]:
    """Split the miss list into dispatch batches, preserving order.

    Auto-sizing targets four batches per worker: large enough to amortise
    dispatch overhead, small enough that checkpointing stays reasonably
    incremental and a straggling batch cannot idle the other workers for
    long.
    """
    size = policy.batch_size
    if size is None:
        size = max(1, math.ceil(len(mine) / (n_workers * 4)))
    return [list(mine[i : i + size]) for i in range(0, len(mine), size)]


def _new_pool(n_workers: int) -> ProcessPoolExecutor:
    """A process pool that forks where the platform allows it.

    Forked workers inherit the parent's warmed trace memo
    (:func:`repro.experiments.runner.warm_trace_memo`) by copy-on-write,
    so no worker re-synthesises the base trace; spawn platforms fall back
    to the default start method and pay one synthesis per worker.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if "fork" in multiprocessing.get_all_start_methods():
        return ProcessPoolExecutor(
            max_workers=n_workers, mp_context=multiprocessing.get_context("fork")
        )
    return ProcessPoolExecutor(max_workers=n_workers)  # pragma: no cover


class _Supervisor:
    """Shared retry/failure bookkeeping of the serial and pool paths."""

    def __init__(self, store: RunStore, policy: ExecutionPolicy) -> None:
        self.store = store
        self.policy = policy
        self.attempts: dict[str, int] = {}
        self.failed: list[str] = []
        self.retries = 0

    def note_failure(self, unit: Unit, digest: str, error: RunError) -> bool:
        """Record one failed attempt; True when the unit should be retried."""
        attempts = self.attempts.get(digest, 0) + 1
        self.attempts[digest] = attempts
        if PERF.enabled:
            PERF.incr(_KIND_COUNTERS.get(error.kind, "pipeline.run_failures"))
        if error.retryable and attempts < self.policy.max_attempts:
            self.retries += 1
            if PERF.enabled:
                PERF.incr("pipeline.retries")
            return True
        self.store.record_failure(
            FailureRecord.from_error(digest, unit.policy, unit.model, error, attempts)
        )
        self.failed.append(digest)
        return False


def _execute_serial(
    mine: Sequence[tuple[Unit, str]], store: RunStore, policy: ExecutionPolicy
) -> _Supervisor:
    supervisor = _Supervisor(store, policy)
    for unit, digest in mine:
        while True:
            try:
                with _wall_clock_limit(policy.run_timeout):
                    result = unit.execute(policy.max_sim_events, policy.max_sim_time)
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                error = classify_failure(exc)
                if supervisor.note_failure(unit, digest, error):
                    policy.sleep(
                        policy.backoff_delay(digest, supervisor.attempts[digest])
                    )
                    continue
                break
            store.record(unit, result)
            break
    return supervisor


def wait(fs, timeout=None, return_when="ALL_COMPLETED"):
    """:func:`concurrent.futures.wait`, imported on the pool path only.

    The supervisor's one blocking point; a module-level name, so a test
    can interrupt a running grid through it.
    """
    from concurrent.futures import wait as futures_wait

    return futures_wait(fs, timeout, return_when)


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Forcefully stop a pool: SIGKILL its workers, then shut it down.

    Used when a straggler must be evicted (a worker stuck past its
    deadline cannot be cancelled through the executor API) and on
    KeyboardInterrupt, so an interrupted grid never leaves zombie
    workers behind.
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.kill()
        except (OSError, AttributeError):  # pragma: no cover - racing exit
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def _execute_pool(
    mine: Sequence[tuple[Unit, str]],
    store: RunStore,
    n_workers: int,
    policy: ExecutionPolicy,
) -> _Supervisor:
    """The supervised process-pool path.

    Dispatch is *batched* (see :attr:`ExecutionPolicy.batch_size`): the
    miss list is chunked up front, each batch is one future, and every
    unit in a completed batch is checkpointed when the batch lands.
    Invariants: at most ``n_workers`` batches are in flight; a broken
    pool is rebuilt and only the in-flight batches are resubmitted; a
    multi-unit batch that crashes or straggles is split into singletons
    *without charging attempts* (only the culprit singleton is charged on
    its own rerun — batchmates are innocent); retries re-enter as
    singletons after waiting out their backoff in a delay queue.
    """
    from concurrent.futures import FIRST_COMPLETED
    from concurrent.futures.process import BrokenProcessPool

    from repro.experiments.runner import warm_trace_memo

    supervisor = _Supervisor(store, policy)
    # Fork-once: synthesise the base traces in the parent *before* the
    # pool exists, so forked workers inherit the warm memo.
    warm_trace_memo([unit for unit, _ in mine if isinstance(unit, RunKey)])
    queue: deque[list[tuple[Unit, str]]] = deque(
        _chunk_batches(mine, n_workers, policy)
    )
    #: backoff heap: (ready_time, seq, unit, digest) — retries are singletons.
    delayed: list[tuple[float, int, Unit, str]] = []
    seq = 0
    inflight: dict = {}  # future -> (batch, deadline)
    pool = _new_pool(n_workers)

    def submit(batch: list[tuple[Unit, str]]) -> bool:
        nonlocal pool
        try:
            future = pool.submit(
                _worker_batch,
                [unit for unit, _ in batch],
                policy.run_timeout,
                policy.max_sim_events,
                policy.max_sim_time,
            )
        except (BrokenProcessPool, RuntimeError):
            # The pool broke between completions; rebuild and retry the
            # submission on the fresh pool.
            queue.appendleft(batch)
            rebuild()
            return False
        deadline = None
        if policy.straggler_deadline() is not None:
            # The in-worker alarm is per unit; the supervisor's deadline
            # covers the whole batch.
            deadline = policy.clock() + policy.straggler_deadline() * len(batch)
        inflight[future] = (batch, deadline)
        if PERF.enabled:
            PERF.incr("pipeline.batches_dispatched")
        return True

    def rebuild() -> None:
        nonlocal pool
        _kill_pool(pool)
        # In-flight futures died with the pool: resubmit their batches.
        for batch, _ in inflight.values():
            queue.append(batch)
        inflight.clear()
        pool = _new_pool(n_workers)
        if PERF.enabled:
            PERF.incr("pipeline.pool_rebuilds")

    def split(batch: list[tuple[Unit, str]]) -> None:
        """Resubmit a failed multi-unit batch as singletons, uncharged."""
        for entry in reversed(batch):
            queue.appendleft([entry])
        if PERF.enabled:
            PERF.incr("pipeline.batch_splits")

    def note(unit: Unit, digest: str, error: RunError) -> None:
        nonlocal seq
        if supervisor.note_failure(unit, digest, error):
            ready = policy.clock() + policy.backoff_delay(
                digest, supervisor.attempts[digest]
            )
            heapq.heappush(delayed, (ready, seq, unit, digest))
            seq += 1

    def handle_outcome(batch: list[tuple[Unit, str]], future) -> None:
        try:
            results = future.result()
        except BrokenProcessPool:
            # The worker running (or queued for) this future died.  A
            # multi-unit batch cannot tell which unit was the culprit:
            # split it and let the culprit's own singleton take the
            # charge on its rerun.
            if len(batch) > 1:
                split(batch)
                return
            unit, digest = batch[0]
            note(
                unit,
                digest,
                RunCrashed(
                    "worker process died (BrokenProcessPool) — "
                    "SIGKILL, OOM-kill, or segfault"
                ),
            )
            return
        except Exception as exc:  # unpicklable result, executor internals
            if len(batch) > 1:
                split(batch)
                return
            unit, digest = batch[0]
            note(unit, digest, classify_failure(exc))
            return
        for (unit, digest), (result, perf_delta, error_doc) in zip(batch, results):
            if perf_delta and PERF.enabled:
                PERF.merge_counters(perf_delta)
            if error_doc is None:
                store.record(unit, result)
            else:
                note(unit, digest, error_from_dict(error_doc))

    try:
        while queue or delayed or inflight:
            now = policy.clock()
            while delayed and delayed[0][0] <= now:
                _, _, unit, digest = heapq.heappop(delayed)
                queue.append([(unit, digest)])
            while queue and len(inflight) < n_workers:
                if not submit(queue.popleft()):
                    break
            if not inflight:
                if delayed:
                    policy.sleep(
                        max(delayed[0][0] - policy.clock(), 0.0)
                        or policy.poll_interval
                    )
                continue
            done, _ = wait(
                set(inflight),
                timeout=policy.poll_interval,
                return_when=FIRST_COMPLETED,
            )
            for future in done:
                batch, _ = inflight.pop(future)
                handle_outcome(batch, future)
            # A BrokenProcessPool outcome dooms every other in-flight
            # future too; the executor marks itself broken when a worker
            # vanishes, so consult that flag rather than guessing.
            if getattr(pool, "_broken", False):
                rebuild()
                continue
            # Straggler backstop: a worker stuck past its deadline (e.g.
            # wedged in C code where SIGALRM cannot fire) is evicted by
            # killing the pool; innocent in-flight units are resubmitted
            # without being charged an attempt, and a multi-unit batch is
            # split so only the actual straggler is ever charged.
            now = policy.clock()
            expired = [
                future
                for future, (_, deadline) in inflight.items()
                if deadline is not None and now > deadline
            ]
            if expired:
                for future in expired:
                    batch, _ = inflight.pop(future)
                    if len(batch) > 1:
                        split(batch)
                        continue
                    unit, digest = batch[0]
                    note(
                        unit,
                        digest,
                        RunTimeout(
                            "run exceeded the supervisor's straggler deadline "
                            f"({policy.straggler_deadline():g}s)",
                            budget=f"run_timeout={policy.run_timeout:g}",
                        ),
                    )
                rebuild()
    except KeyboardInterrupt:
        # Leave no zombies and keep the store consistent: everything
        # already completed has been checkpointed, so a rerun against the
        # same cache dir resumes exactly where this stopped.
        for future in inflight:
            future.cancel()
        _kill_pool(pool)
        if PERF.enabled:
            PERF.incr("pipeline.interrupted")
        raise
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    return supervisor


def execute_plan(
    plan: Sequence[Unit],
    store: RunStore,
    n_workers: int = 1,
    shard: Optional[tuple[int, int]] = None,
    execution: ExecutionPolicy = DEFAULT_EXECUTION,
) -> PlanExecution:
    """Dedupe, (optionally) shard, execute under supervision, checkpoint.

    Accounting is per access, and this is the one place that keeps it:
    every plan entry is one logical access; the first access of a digest the
    store cannot serve is a miss, every other access is a hit.  Misses are
    executed in first-access order (serially) or fanned over a process
    pool, and each finished unit is written to the store the moment it
    completes, so an interrupted call loses at most the in-flight units.

    ``shard=(i, n)`` keeps only the misses whose digest falls in the
    ``i``-th of ``n`` buckets, for splitting one plan across machines that
    share a cache directory.  Assignment is a pure function of the
    content hash, so it is stable no matter how much of the plan other
    shards have already checkpointed; the returned :class:`PlanExecution`
    reports the deferred remainder.

    ``execution`` supervises the units (timeouts, retries with backoff,
    crash recovery — see :class:`ExecutionPolicy`).  Units that exhaust
    their retries are journaled in the store and reported in
    ``PlanExecution.failed``; the plan itself always runs to the end, so
    one poisoned unit cannot abort a long sweep.
    """
    shard = _parse_shard(shard)
    t0 = time.perf_counter()

    pending: list[tuple[Unit, str]] = []
    seen: set[str] = set()
    hits = 0
    for unit in plan:
        digest = unit.digest
        if digest in seen or store.lookup(unit) is not None:
            hits += 1
        else:
            seen.add(digest)
            pending.append((unit, digest))
    misses = len(pending)
    store.hits += hits
    store.misses += misses
    if PERF.enabled:
        PERF.incr("runner.cache_hits", hits)
        PERF.incr("runner.cache_misses", misses)

    if shard is not None:
        index, count = shard
        mine = [
            (unit, digest) for unit, digest in pending
            if int(digest[:8], 16) % count == index
        ]
    else:
        mine = pending
    deferred = misses - len(mine)

    if mine and n_workers > 1:
        supervisor = _execute_pool(mine, store, n_workers, execution)
        if PERF.enabled:
            PERF.incr("runner.parallel_dispatches", len(mine))
    else:
        supervisor = _execute_serial(mine, store, execution)

    wall = time.perf_counter() - t0
    if PERF.enabled:
        PERF.add_time("pipeline.execute_s", wall)
        PERF.incr("pipeline.plans_executed")
    return PlanExecution(
        accesses=len(plan),
        hits=hits,
        misses=misses,
        executed=len(mine),
        deferred=deferred,
        wall_s=wall,
        failed=tuple(supervisor.failed),
        retries=supervisor.retries,
    )


def assemble_grid(
    store: RunStore,
    policies: Sequence[str],
    model_name: str,
    base: ExperimentConfig,
    set_name: str = "A",
    scenarios: Sequence[Scenario] = SCENARIOS,
    wait_method: str = "grid-max",
    on_missing: str = "raise",
):
    """Reduce a fully (or partially) populated store to a ``GridAnalysis``.

    Purely a read: normalises each scenario's raw objective grid (§4.1)
    and applies Eqs. 5–6, exactly as the serial runner always has — which
    is why any execution strategy that fills the store yields the same
    bytes.

    ``on_missing`` chooses the policy for absent runs:

    ``"raise"`` (default)
        Raise :class:`StoreError` naming the gap count (e.g. not every
        shard has completed yet) — the historical behaviour.
    ``"degrade"``
        Tolerate the gaps: missing cells contribute nothing to the
        scenario's normalisation, a policy with no surviving cells in a
        scenario gets a NaN :class:`SeparateRisk` gap marker, and the
        returned analysis carries a ``gaps`` report listing each missing
        cell's digest, config knob, and journaled failure reason.
    """
    from repro.experiments.runner import GridAnalysis

    if on_missing not in ("raise", "degrade"):
        raise ValueError(f"on_missing must be 'raise' or 'degrade', got {on_missing!r}")
    base = base.for_set(set_name)
    missing = 0
    gaps: list[dict] = []
    journal = store.failures() if on_missing == "degrade" else {}
    separate: dict[Objective, dict[str, dict[str, object]]] = {
        objective: {policy: {} for policy in policies} for objective in Objective
    }
    for scenario in scenarios:
        configs = scenario.configs(base)
        runs: list[list[Optional[ObjectiveSet]]] = [
            [store.get(config, policy, model_name) for config in configs]
            for policy in policies
        ]
        scenario_missing = sum(
            run is None for policy_runs in runs for run in policy_runs
        )
        missing += scenario_missing
        if scenario_missing and on_missing == "raise":
            continue
        if scenario_missing:
            gaps.extend(
                _scenario_gaps(scenario, configs, policies, model_name, runs, journal)
            )
            normalized = normalize_runs(runs, wait_method=wait_method, allow_gaps=True)
            for objective in Objective:
                grid = normalized[objective]
                for p, policy in enumerate(policies):
                    values = [v for v in grid[p] if math.isfinite(v)]
                    separate[objective][policy][scenario.name] = (
                        separate_risk(values) if values else SeparateRisk.gap()
                    )
            continue
        normalized = normalize_runs(runs, wait_method=wait_method)
        for objective in Objective:
            grid = normalized[objective]
            for p, policy in enumerate(policies):
                separate[objective][policy][scenario.name] = separate_risk(grid[p])
    if missing and on_missing == "raise":
        raise StoreError(
            f"grid incomplete: {missing} run(s) absent from the store — "
            "rerun against the same cache dir (or finish the other shards) "
            "before assembling, or assemble with on_missing='degrade'"
        )
    return GridAnalysis(
        model=model_name,
        set_name=set_name,
        policies=tuple(policies),
        scenarios=tuple(s.name for s in scenarios),
        separate=separate,
        gaps=tuple(gaps),
    )


def _scenario_gaps(
    scenario: Scenario,
    configs: Sequence[ExperimentConfig],
    policies: Sequence[str],
    model_name: str,
    runs: Sequence[Sequence[Optional[ObjectiveSet]]],
    journal: dict,
) -> list[dict]:
    """Gap-report entries for one scenario's missing cells."""
    gaps = []
    for p, policy in enumerate(policies):
        for v, objectives in enumerate(runs[p]):
            if objectives is not None:
                continue
            digest = RunKey(configs[v], policy, model_name).digest
            failure = journal.get(digest)
            gaps.append(
                {
                    "digest": digest,
                    "policy": policy,
                    "scenario": scenario.name,
                    "knob": scenario.field_name,
                    "value": scenario.values[v],
                    "kind": failure.kind if failure else "missing",
                    "reason": failure.message if failure else "no run in store",
                }
            )
    return gaps
