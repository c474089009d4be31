"""Reference free-node pool of the space-shared cluster, for checking its fast path.

:class:`ReferencePool` is the per-node bookkeeping of
:class:`~repro.cluster.spaceshared.SpaceSharedCluster` as it was before the
pool was indexed: the free list is re-sorted by a ``lambda`` over
``Node.speed_factor`` after every node that comes back, a failed node is
found in the free list by a membership test and in a job's allocation by
scanning every running job, and an allocation runs at the minimum speed
factor over its nodes.  It keeps allocations by job id and shares nothing
with the cluster, so the two can be compared after any operation.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cluster.node import REFERENCE_RATING, Node


class ReferencePool:
    """Free nodes fastest first (ties by node id), allocations by job id."""

    def __init__(self, ratings: Sequence[float]) -> None:
        self.nodes = [Node(i, float(r)) for i, r in enumerate(ratings)]
        self.free: list[int] = sorted(
            range(len(self.nodes)),
            key=lambda i: (-self.nodes[i].speed_factor, i),
        )
        self.free_procs = len(self.nodes)
        self.allocations: dict[int, tuple[int, ...]] = {}
        self.down: set[int] = set()
        self.retired: set[int] = set()

    def _resort(self) -> None:
        self.free.sort(key=lambda i: (-self.nodes[i].speed_factor, i))

    def allocate(self, job_id: int, procs: int) -> tuple[tuple[int, ...], float]:
        """Take the ``procs`` fastest free nodes; returns them and the
        allocation's speed (its slowest node's)."""
        chosen = self.free[:procs]
        del self.free[:procs]
        self.free_procs -= procs
        self.allocations[job_id] = tuple(chosen)
        return tuple(chosen), min(self.nodes[i].speed_factor for i in chosen)

    def release(self, job_id: int) -> None:
        """The job completed: every node it held is free again."""
        nodes = self.allocations.pop(job_id)
        self.free.extend(nodes)
        self._resort()
        self.free_procs += len(nodes)

    def fail(self, node_id: int) -> Optional[int]:
        """Take ``node_id`` down; returns the id of the job it killed."""
        self.down.add(node_id)
        if node_id in self.free:
            self.free.remove(node_id)
            self.free_procs -= 1
            return None
        victim = None
        for job_id, nodes in self.allocations.items():
            if node_id in nodes:
                victim = job_id
                break
        assert victim is not None, f"node {node_id} is neither free nor held"
        nodes = self.allocations.pop(victim)
        self.free.extend(i for i in nodes if i != node_id)
        self._resort()
        self.free_procs += len(nodes) - 1
        return victim

    def repair(self, node_id: int) -> None:
        self.down.discard(node_id)
        self.free.append(node_id)
        self._resort()
        self.free_procs += 1

    def commission(self, rating: Optional[float] = None) -> int:
        node_id = len(self.nodes)
        self.nodes.append(
            Node(node_id, float(rating) if rating is not None else REFERENCE_RATING)
        )
        self.free.append(node_id)
        self._resort()
        self.free_procs += 1
        return node_id

    def decommission(self, node_id: int) -> Optional[int]:
        """Retire ``node_id`` for good; returns the id of the job it killed."""
        victim = self.fail(node_id)
        self.down.discard(node_id)
        self.retired.add(node_id)
        return victim

    def holders(self) -> dict[int, int]:
        """Node id → id of the job holding it, over every running job."""
        return {
            node_id: job_id
            for job_id, nodes in self.allocations.items()
            for node_id in nodes
        }
