"""Lease files: crash-tolerant mutual exclusion over a shared directory.

A lease is one JSON file under ``jobs/<id>/leases/<digest>.json`` naming
its owner and an absolute expiry time.  The primitives rely only on
POSIX atomicity:

- **acquire** — ``O_CREAT | O_EXCL``: exactly one claimant wins.
- **renew** — tmp + ``os.replace`` of a fresh document with a pushed-out
  deadline (the worker heartbeat).
- **steal** — ``os.replace`` of an *expired* lease to a unique stale
  name, then unlink: of any number of concurrent stealers, exactly one
  rename succeeds (the source vanishes for the rest), so a dead worker's
  unit returns to the claimable pool exactly once.

Leases are an *efficiency* mechanism, not a correctness one: every work
unit is a pure function of its content digest, so the worst case of any
race here (an owner resurrecting just after its lease was stolen) is the
same run executing twice and the store merge deduplicating the identical
bytes.  Bit-identity of the farmed grid never depends on lease
exclusivity — that is what makes this protocol safe to run over NFS or
rsync-synchronised directories with skewed clocks (skew eats into the
grace period, nothing more).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from repro.experiments.runstore import atomic_write_text
from repro.perf.registry import PERF

#: default seconds a claim stays exclusive without a heartbeat.
DEFAULT_LEASE_S = 60.0


@dataclass(frozen=True)
class Lease:
    """One decoded lease file."""

    digest: str
    worker: str
    deadline: float  #: absolute unix time after which the lease is stale

    def expired(self, now: Optional[float] = None) -> bool:
        return (time.time() if now is None else now) > self.deadline

    def to_dict(self) -> dict:
        return {"digest": self.digest, "worker": self.worker,
                "deadline": self.deadline}


def read_lease(path: Path) -> Optional[Lease]:
    """Decode a lease file; a missing or malformed file is no lease."""
    try:
        doc = json.loads(path.read_text())
        return Lease(
            digest=str(doc["digest"]),
            worker=str(doc["worker"]),
            deadline=float(doc["deadline"]),
        )
    except (OSError, ValueError, TypeError, KeyError):
        return None


def acquire(
    path: Path,
    digest: str,
    worker: str,
    duration: float = DEFAULT_LEASE_S,
    clock: Callable[[], float] = time.time,
) -> Optional[Lease]:
    """Try to take the lease; None when a rival already holds a live one.

    An *expired* lease found in the way is stolen first (see
    :func:`steal`), so claiming doubles as the work-stealing path: any
    worker that walks the unit list reclaims dead workers' units without
    the service in the loop.
    """
    existing = read_lease(path)
    if existing is not None:
        if not existing.expired(clock()):
            return None
        if not steal(path):
            return None  # a rival stole (and may have re-acquired) first
    lease = Lease(digest=digest, worker=worker, deadline=clock() + duration)
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return None  # lost the creation race
    except OSError:
        return None
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(lease.to_dict(), sort_keys=True) + "\n")
    if PERF.enabled:
        PERF.incr("farm.leases_acquired")
    return lease


def renew(
    path: Path,
    lease: Lease,
    duration: float = DEFAULT_LEASE_S,
    clock: Callable[[], float] = time.time,
) -> Optional[Lease]:
    """Heartbeat: push the deadline out; None when the lease was lost.

    A lease can be lost legitimately — the worker stalled past its
    deadline and a rival stole the unit.  The caller may still finish and
    commit its run (purity makes the duplicate harmless) but must stop
    heartbeating a file it no longer owns.
    """
    current = read_lease(path)
    if current is None or current.worker != lease.worker:
        return None
    renewed = Lease(
        digest=lease.digest, worker=lease.worker, deadline=clock() + duration
    )
    try:
        atomic_write_text(path, json.dumps(renewed.to_dict(), sort_keys=True) + "\n")
    except OSError:
        return None
    if PERF.enabled:
        PERF.incr("farm.lease_renewals")
    return renewed


def release(path: Path, lease: Lease) -> None:
    """Drop the lease if this worker still holds it."""
    current = read_lease(path)
    if current is None or current.worker != lease.worker:
        return
    try:
        path.unlink()
    except OSError:
        pass


def steal(path: Path) -> bool:
    """Remove an expired lease; True when *this* caller did the removal.

    The rename-then-unlink dance makes removal single-winner: the loser's
    ``os.replace`` raises ``FileNotFoundError`` because the winner already
    moved the file away.  Callers must re-check expiry before calling —
    this function does not.
    """
    stale = path.with_name(f".{path.name}.stale.{os.getpid()}.{time.monotonic_ns()}")
    try:
        os.replace(path, stale)
    except OSError:
        return False
    try:
        stale.unlink()
    except OSError:
        pass
    if PERF.enabled:
        PERF.incr("farm.leases_stolen")
    return True


def reap_expired(
    leases_dir: Path, clock: Callable[[], float] = time.time
) -> int:
    """Service sweep: steal back every expired lease in a directory.

    Workers steal lazily (at claim time); the farm service calls this each
    poll so a dead worker's units become claimable even when every other
    worker is busy deep in a long run.  Returns the number reaped.
    """
    reaped = 0
    try:
        entries = sorted(leases_dir.glob("*.json"))
    except OSError:
        return 0
    now = clock()
    for path in entries:
        lease = read_lease(path)
        if lease is not None and lease.expired(now) and steal(path):
            reaped += 1
    return reaped
