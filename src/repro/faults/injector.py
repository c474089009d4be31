"""The fault injector: node-down/node-up events on the simulator.

One :class:`FaultInjector` binds to one
:class:`~repro.service.provider.CommercialComputingService` run.  It owns
the failure/repair process of every node, schedules the resulting
node-down and node-up events (at :data:`~repro.sim.events.Priority.INTERNAL`,
so completions at the same instant still win and arrivals still lose),
tells the cluster to fail/repair the nodes, and hands the jobs killed by a
failure to the policy's recovery path.

Every fault is a *batch*: the nodes that go down at one instant (a lone
node, a rack or site outage, one cascade wave).  All of them fail in the
cluster first; then the policy gets the kills of the whole batch in one
:meth:`~repro.policies.base.Policy.on_node_failure` call and
dispatches once, so it never starts a job on a node of the batch that is
about to fail.  The batch shares one repair event, which brings its nodes
back in member order and makes one ``on_node_repair`` call.

Lifecycle per node under a stochastic model::

    healthy ──(time_to_failure)──► down ──(time_to_repair)──► healthy …

A scripted model replays its explicit schedule verbatim.  A fault run ends
with its workload: once the last SLA resolves, the injector cancels every
event it still has pending (failures, repairs, outages, cascades, capacity
changes) and schedules no more, so the clock stops at the last resolution
and downtime is measured over ``[0, last resolution]``.

On top of the independent per-node chains, the injector drives the
*correlated* failure structure a config can describe (see
:mod:`repro.faults.topology` and :class:`~repro.faults.config.FaultConfig`):

- **domain outages** — each rack/site with a stochastic outage process
  (or a scripted ``domain_schedule`` entry) goes down as one batch: every
  healthy member node fails at the same instant and is repaired after the
  outage's downtime;
- **cascades** — every failure propagates to each topology peer with
  probability ``cascade_prob`` after a deterministic ``cascade_delay``
  (node failures spread to rack-mates, rack outages to sibling racks),
  bounded by ``cascade_depth`` hops; the rack-mates one node failure hits
  go down together, as one wave;
- **elastic capacity** — nodes are commissioned/decommissioned mid-run;
  a commission grows the cluster and (under a stochastic node model) arms
  a failure chain for the new node, a decommission kills the node's jobs
  through the normal recovery path and retires the node for good.

Determinism: node *i* draws from the dedicated ``faults.node<i>`` substream
of :class:`~repro.sim.rng.RngStreams` seeded with the experiment seed;
domain ``d`` draws from ``faults.domain.<d>``, cascades from
``faults.cascade``, and elastic events from ``faults.elastic``.  The
substreams are name-addressed, so enabling any correlated feature never
perturbs the draws of another — the failure history stays a pure function
of ``(seed, FaultConfig)``, which is exactly what makes faulty runs
content-addressable in the run store.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.faults.config import FaultConfig
from repro.faults.models import ExponentialFailures, ScriptedFailures, make_failure_process
from repro.faults.topology import FaultTopology
from repro.perf.registry import PERF
from repro.sim.events import Priority
from repro.sim.rng import RngStreams
from repro.workload.job import Job


@dataclass(frozen=True)
class FaultKill:
    """One job terminated by a node failure.

    ``progress`` is the reference-node seconds of work the job had
    completed when the node died — what the checkpoint recovery discipline
    rounds down to the last checkpoint.
    """

    job: Job
    progress: float
    node_id: int


@dataclass
class FaultStats:
    """Counters the injector accumulates over one run."""

    failures: int = 0
    repairs: int = 0
    jobs_killed: int = 0
    #: node-seconds spent down, up to the end of the run (see
    #: :meth:`FaultInjector.close`).
    downtime_s: float = 0.0
    per_node_failures: dict[int, int] = field(default_factory=dict)
    per_node_downtime: dict[int, float] = field(default_factory=dict)
    #: whole-group (rack/site) outages executed.
    domain_outages: int = 0
    #: peer failures actually triggered by cascade edges.
    cascade_propagations: int = 0
    #: elastic-capacity events.
    nodes_commissioned: int = 0
    nodes_decommissioned: int = 0


class FaultInjector:
    """Schedules failures/repairs for one service run.

    Parameters
    ----------
    service:
        The bound :class:`CommercialComputingService`; the injector uses its
        simulator, cluster, and policy, and asks it whether any jobs remain
        unresolved before re-arming a failure chain.
    config:
        The failure regime (must have ``enabled=True``).
    seed:
        Root seed for the dedicated rng streams — the experiment seed, so
        one seed reproduces workload *and* failure history together.
    """

    def __init__(self, service, config: FaultConfig, seed: int = 0) -> None:
        if not config.enabled:
            raise ValueError("FaultInjector requires an enabled FaultConfig")
        self.service = service
        self.sim = service.sim
        self.cluster = service.cluster
        self.policy = service.policy
        self.config = config
        self.stats = FaultStats()
        self._streams = RngStreams(seed=seed)
        self._process = make_failure_process(config)
        self.topology = FaultTopology.from_config(config, self.cluster.total_procs)
        self._domain_process = (
            ExponentialFailures(config.domain_mtbf, config.domain_mttr)
            if config.domain_mtbf > 0
            else None
        )
        self._site_process = (
            ExponentialFailures(config.site_mtbf, config.site_mttr)
            if config.site_mtbf > 0
            else None
        )
        #: down node id -> instant it went down.
        self._down: dict[int, float] = {}
        #: nodes decommissioned for good (elastic capacity).
        self._gone: set[int] = set()
        #: nodes with a pending *individual* failure event — a repair must
        #: not re-arm these, or a node downed by a domain outage while its
        #: own failure was pending would end up with two chains.
        self._armed: set[int] = set()
        #: commissioned node ids still in service (LIFO decommission order).
        self._extra_nodes: list[int] = []
        self._stopped = False
        #: handles of the events this injector scheduled, some already run;
        #: fired and cancelled ones are dropped once the list doubles.
        self._events: list = []
        self._compact_at = 64

    # -- wiring ----------------------------------------------------------------
    def start(self) -> None:
        """Attach to cluster and policy, then arm the first failures."""
        enable = getattr(self.cluster, "enable_node_tracking", None)
        if enable is not None:
            enable()
        self.policy.fault_config = self.config
        self.service.observers.append(self._on_sla_transition)
        if isinstance(self._process, ScriptedFailures):
            for fail_time, node_id, downtime in self._process.schedule:
                self._check_node(node_id)
                self._at(fail_time, self._scripted_fail, node_id, downtime)
        else:
            for node_id in range(self.cluster.total_procs):
                self._arm(node_id)
        self._start_domains()
        self._start_elastic()

    def _start_domains(self) -> None:
        config = self.config
        for fail_time, name, downtime in config.domain_schedule:
            self.topology.domain_nodes(name)  # validate against this machine
            self._at(fail_time, self._scripted_domain_fail, name, downtime)
        if self._domain_process is not None:
            for rack in range(self.topology.n_racks):
                self._arm_domain(f"rack{rack}")
        if self._site_process is not None:
            for site in range(self.topology.n_sites):
                self._arm_domain(f"site{site}")

    def _start_elastic(self) -> None:
        config = self.config
        if config.elastic_model == "scripted":
            for event_time, delta in config.elastic_schedule:
                self._at(event_time, self._scripted_elastic, delta)
        elif config.elastic_model == "stochastic":
            self._arm_elastic()

    def _check_node(self, node_id: int) -> None:
        if not 0 <= node_id < self.cluster.total_procs:
            raise ValueError(
                f"scripted failure targets node {node_id}, "
                f"cluster has {self.cluster.total_procs}"
            )

    def _rng(self, node_id: int):
        return self._streams.get(f"faults.node{node_id}")

    def _domain_rng(self, name: str):
        return self._streams.get(f"faults.domain.{name}")

    def _track(self, handle) -> None:
        events = self._events
        events.append(handle)
        if len(events) > self._compact_at:
            events[:] = [h for h in events if not (h.fired or h.cancelled)]
            self._compact_at = 2 * len(events) + 64

    def _after(self, delay: float, fn, *args) -> None:
        """Schedule ``fn(*args)`` ``delay`` seconds from now, unless closed."""
        if not self._stopped:
            self._track(self.sim.schedule(delay, fn, *args, priority=Priority.INTERNAL))

    def _at(self, time: float, fn, *args) -> None:
        """Schedule ``fn(*args)`` at ``time`` (the scripted events)."""
        self._track(self.sim.schedule_at(time, fn, *args, priority=Priority.INTERNAL))

    def _arm(self, node_id: int) -> None:
        """Schedule the next stochastic failure of a healthy node."""
        self._armed.add(node_id)
        delay = self._process.time_to_failure(self._rng(node_id))
        self._after(delay, self._fail, node_id)

    def _domain_process_for(self, name: str) -> ExponentialFailures:
        return self._site_process if name.startswith("site") else self._domain_process

    def _arm_domain(self, name: str) -> None:
        """Schedule the next stochastic outage of a whole domain."""
        process = self._domain_process_for(name)
        delay = process.time_to_failure(self._domain_rng(name))
        self._after(delay, self._domain_fail, name)

    def _arm_elastic(self) -> None:
        rng = self._streams.get("faults.elastic")
        delay = float(rng.exponential(self.config.elastic_interval))
        self._after(delay, self._elastic_event)

    # -- end of the run --------------------------------------------------------
    def _on_sla_transition(self, _event: str, _record) -> None:
        if self._workload_done():
            self.close()

    def close(self) -> None:
        """End the fault run now: cancel every pending injector event and
        schedule no more.

        Called when the last SLA resolves.  Nodes still down stay down;
        their downtime is counted up to this instant, so
        :attr:`FaultStats.downtime_s` covers exactly ``[0, now]``.
        """
        self._stopped = True
        for handle in self._events:
            handle.cancel()
        self._events = []
        now = self.sim.now
        for node_id, since in self._down.items():
            self._add_downtime(node_id, now - since)
            self._down[node_id] = now

    def _add_downtime(self, node_id: int, seconds: float) -> None:
        stats = self.stats
        stats.downtime_s += seconds
        stats.per_node_downtime[node_id] = (
            stats.per_node_downtime.get(node_id, 0.0) + seconds
        )

    # -- event handlers --------------------------------------------------------
    def _workload_done(self) -> bool:
        """True once no SLA can still change — failures stop mattering."""
        return self.service.unresolved_count() == 0

    def _fail(self, node_id: int) -> None:
        self._armed.discard(node_id)
        if self._stopped or self._workload_done():
            # Nothing left to perturb: let the chain die so the event list
            # drains.  Pending repairs still run (they are finite).
            self._stopped = True
            return
        if node_id in self._down or node_id in self._gone:
            # A domain outage or cascade beat this chain to the node (or it
            # was decommissioned).  The node's repair re-arms the chain.
            return
        self._execute_failure(
            (node_id,), self._process.time_to_repair(self._rng(node_id))
        )

    def _scripted_fail(self, node_id: int, downtime: float) -> None:
        if node_id in self._down or node_id in self._gone:
            if self.config.has_correlated_faults or self.config.has_elastic:
                # Correlated features make overlap legitimate: a rack outage
                # can hold the node down when its scripted failure fires.
                return
            raise ValueError(
                f"scripted schedule fails node {node_id} while it is already down"
            )
        self._execute_failure((node_id,), downtime)

    def _domain_fail(self, name: str) -> None:
        if self._stopped or self._workload_done():
            self._stopped = True
            return
        process = self._domain_process_for(name)
        downtime = process.time_to_repair(self._domain_rng(name))
        self._execute_domain_failure(name, downtime)
        self._after(downtime, self._domain_up, name)

    def _domain_up(self, name: str) -> None:
        """The domain's outage ended (members repaired themselves): re-arm."""
        if not self._stopped and not self._workload_done():
            self._arm_domain(name)
        else:
            self._stopped = True

    def _scripted_domain_fail(self, name: str, downtime: float) -> None:
        self._execute_domain_failure(name, downtime)

    def _execute_domain_failure(
        self, name: str, downtime: float, hops: int = 0
    ) -> None:
        """Take every healthy member of ``name`` down as one batch."""
        members = self._healthy(self.topology.domain_nodes(name))
        self.stats.domain_outages += 1
        if PERF.enabled:
            PERF.incr("faults.domain_outages")
            PERF.incr("faults.domain_nodes_down", len(members))
        self._take_down(members, downtime)
        if name.startswith("rack"):
            self._cascade_from_rack(int(name[len("rack"):]), downtime, hops)

    def _elastic_event(self) -> None:
        if self._stopped or self._workload_done():
            self._stopped = True
            return
        rng = self._streams.get("faults.elastic")
        extras = len(self._extra_nodes)
        if extras == 0:
            grow = True
        elif extras >= self.config.elastic_max_extra:
            grow = False
        else:
            grow = bool(rng.random() < 0.5)
        if grow:
            self._commission()
        else:
            self._decommission()
        self._arm_elastic()

    def _scripted_elastic(self, delta: int) -> None:
        if delta > 0:
            for _ in range(delta):
                self._commission()
        else:
            for _ in range(-delta):
                if not self._decommission():
                    raise ValueError(
                        "elastic schedule decommissions below the base machine "
                        "size (only previously commissioned nodes can go)"
                    )

    def _commission(self) -> int:
        node_id = self.cluster.commission_node()
        self._extra_nodes.append(node_id)
        self.stats.nodes_commissioned += 1
        if PERF.enabled:
            PERF.incr("faults.elastic_commissions")
        # Capacity grew — same dispatch opportunity as a repaired node.
        self.policy.on_node_repair((node_id,))
        if not isinstance(self._process, ScriptedFailures):
            self._arm(node_id)
        return node_id

    def _decommission(self) -> bool:
        """Retire the most recently commissioned healthy node, if any."""
        for index in range(len(self._extra_nodes) - 1, -1, -1):
            node_id = self._extra_nodes[index]
            if node_id not in self._down:
                del self._extra_nodes[index]
                break
        else:
            return False  # nothing decommissionable (none, or all down)
        killed = self.cluster.decommission_node(node_id)
        self._gone.add(node_id)
        kills = [
            FaultKill(job=job, progress=progress, node_id=node_id)
            for job, progress in killed
        ]
        self.stats.nodes_decommissioned += 1
        self.stats.jobs_killed += len(kills)
        if PERF.enabled:
            PERF.incr("faults.elastic_decommissions")
            PERF.incr("faults.jobs_killed", len(kills))
        if kills:
            # Same recovery path as a failure: SLAs are interrupted and the
            # jobs re-run (or terminally fail) per the recovery discipline.
            self.policy.on_node_failure((node_id,), kills)
        return True

    def _healthy(self, node_ids) -> tuple[int, ...]:
        """The nodes of ``node_ids`` that are up and in service, in order."""
        down, gone = self._down, self._gone
        return tuple(n for n in node_ids if n not in down and n not in gone)

    def _execute_failure(
        self, node_ids: tuple[int, ...], downtime: float, hops: int = 0
    ) -> None:
        """Fail ``node_ids`` as one batch, then draw each member's cascade."""
        self._take_down(node_ids, downtime)
        for node_id in node_ids:
            self._cascade_from_node(node_id, downtime, hops)

    def _take_down(self, node_ids: tuple[int, ...], downtime: float) -> None:
        """Fail every node of ``node_ids`` now; one dispatch, one repair.

        All the nodes go down in the cluster before the policy hears of any
        kill, so its single dispatch cannot start a job on a node of the
        batch.  The batch is repaired together ``downtime`` seconds later.
        """
        if not node_ids:
            return
        now = self.sim.now
        stats = self.stats
        per_node = stats.per_node_failures
        kills: list[FaultKill] = []
        for node_id in node_ids:
            self._down[node_id] = now
            for job, progress in self.cluster.fail_node(node_id):
                kills.append(FaultKill(job=job, progress=progress, node_id=node_id))
            per_node[node_id] = per_node.get(node_id, 0) + 1
        stats.failures += len(node_ids)
        stats.jobs_killed += len(kills)
        if PERF.enabled:
            PERF.incr("faults.injected", len(node_ids))
            PERF.incr("faults.jobs_killed", len(kills))
            for _ in node_ids:
                PERF.observe("faults.downtime_s", downtime)
        self.policy.on_node_failure(node_ids, kills)
        self._after(downtime, self._repair, node_ids)

    # -- cascades --------------------------------------------------------------
    def _cascade_from_node(self, node_id: int, downtime: float, hops: int) -> None:
        """Draw each rack-mate edge; the hits fail together after the
        cascade delay, as one wave."""
        config = self.config
        if config.cascade_prob <= 0 or hops >= config.cascade_depth:
            return
        rng = self._streams.get("faults.cascade")
        prob = config.cascade_prob
        hits = tuple(
            peer for peer in self.topology.node_peers(node_id)
            if float(rng.random()) < prob
        )
        if hits:
            self._after(config.cascade_delay, self._cascade_fail,
                        hits, downtime, hops + 1)

    def _cascade_from_rack(self, rack: int, downtime: float, hops: int) -> None:
        """Draw each sibling-rack edge; hits go down whole after the delay."""
        config = self.config
        if config.cascade_prob <= 0 or hops >= config.cascade_depth:
            return
        rng = self._streams.get("faults.cascade")
        for peer_name in self.topology.rack_peers(rack):
            if float(rng.random()) < config.cascade_prob:
                self._after(config.cascade_delay, self._cascade_domain_fail,
                            peer_name, downtime, hops + 1)

    def _cascade_fail(
        self, peers: tuple[int, ...], downtime: float, hops: int
    ) -> None:
        if self._stopped or self._workload_done():
            self._stopped = True
            return
        # Peers already down when the propagation arrived are spared.
        wave = self._healthy(peers)
        self.stats.cascade_propagations += len(wave)
        if PERF.enabled:
            PERF.incr("faults.cascade_propagations", len(wave))
        self._execute_failure(wave, downtime, hops)

    def _cascade_domain_fail(self, name: str, downtime: float, hops: int) -> None:
        if self._stopped or self._workload_done():
            self._stopped = True
            return
        self.stats.cascade_propagations += 1
        if PERF.enabled:
            PERF.incr("faults.cascade_propagations")
        self._execute_domain_failure(name, downtime, hops=hops)

    def _repair(self, node_ids: tuple[int, ...]) -> None:
        """Bring a batch back in member order, dispatch once, then re-arm
        each node's failure chain in member order."""
        now = self.sim.now
        for node_id in node_ids:
            self._add_downtime(node_id, now - self._down.pop(node_id))
            self.cluster.repair_node(node_id)
        self.stats.repairs += len(node_ids)
        if PERF.enabled:
            PERF.incr("faults.repaired", len(node_ids))
        self.policy.on_node_repair(node_ids)
        if isinstance(self._process, ScriptedFailures):
            return
        for node_id in node_ids:
            if self._stopped or node_id in self._armed or node_id in self._gone:
                continue
            if self._workload_done():
                self._stopped = True
            else:
                self._arm(node_id)

    # -- introspection ---------------------------------------------------------
    def down_nodes(self) -> frozenset[int]:
        return frozenset(self._down)

    def commissioned_nodes(self) -> tuple[int, ...]:
        """Elastic nodes currently in service (commission order)."""
        return tuple(self._extra_nodes)

    def observed_availability(self, horizon: float) -> float:
        """Fraction of node-time the cluster was up over ``[0, horizon]``,
        where ``horizon`` is the end of the run (the service passes the
        instant of the last SLA resolution, at which :meth:`close` stopped
        the downtime clock).

        Uses the cluster's *current* size as the capacity baseline, so the
        figure is approximate under elastic capacity changes.
        """
        if horizon <= 0:
            return 1.0
        capacity = self.cluster.total_procs * horizon
        return max(0.0, 1.0 - self.stats.downtime_s / capacity)
