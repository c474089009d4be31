"""Reference free-node pool of the space-shared cluster, for checking its fast path.

:class:`ReferencePool` is the per-node bookkeeping of
:class:`~repro.cluster.spaceshared.SpaceSharedCluster` as it was before the
pool was indexed: the free list is re-sorted after every node that comes
back, and a failed node is found in the free list by a membership test and
in a job's allocation by scanning every running job.  It keeps allocations
by job id and shares nothing with the cluster, so the two can be compared
after any operation.
"""

from __future__ import annotations

from typing import Optional


class ReferencePool:
    """Free nodes in id order, allocations by job id."""

    def __init__(self, n_nodes: int) -> None:
        self.n_nodes = n_nodes
        self.free: list[int] = list(range(n_nodes))
        self.free_procs = n_nodes
        self.allocations: dict[int, tuple[int, ...]] = {}
        self.down: set[int] = set()
        self.retired: set[int] = set()

    def allocate(self, job_id: int, procs: int) -> tuple[int, ...]:
        """Take the ``procs`` lowest-numbered free nodes and return them."""
        chosen = self.free[:procs]
        del self.free[:procs]
        self.free_procs -= procs
        self.allocations[job_id] = tuple(chosen)
        return tuple(chosen)

    def release(self, job_id: int) -> None:
        """The job completed: every node it held is free again."""
        nodes = self.allocations.pop(job_id)
        self.free.extend(nodes)
        self.free.sort()
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
        self.free.sort()
        self.free_procs += len(nodes) - 1
        return victim

    def repair(self, node_id: int) -> None:
        self.down.discard(node_id)
        self.free.append(node_id)
        self.free.sort()
        self.free_procs += 1

    def commission(self) -> int:
        node_id = self.n_nodes
        self.n_nodes += 1
        self.free.append(node_id)
        self.free.sort()
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
