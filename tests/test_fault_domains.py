"""Tests for the fault-domain subsystem (topology, correlated failures,
cascades, elastic capacity) and its integration with the grid pipeline,
the crash harness (``crashkit``), the farm, and the market.

The acceptance bar of the correlated-fault work: a fault-domain grid is
bit-identical across serial, parallel, resumed, and farmed execution, and
a whole-domain outage mid-grid (``crashkit``'s correlated batch kill)
degrades with correct gap accounting instead of corrupting state.
"""

import json

import pytest

import crashkit
from repro import perf
from repro.economy.models import make_model
from repro.experiments.pipeline import (
    ExecutionPolicy,
    assemble_grid,
    execute_plan,
    grid_plan,
)
from repro.experiments.runner import run_grid, run_single
from repro.experiments.runstore import SCHEMA_VERSION, RunKey, RunStore
from repro.experiments.scenarios import ExperimentConfig, scenario_by_name
from repro.faults.config import FaultConfig
from repro.faults.topology import FaultTopology
from repro.perf.registry import PERF
from repro.policies import make_policy
from repro.service.provider import CommercialComputingService
from repro.workload.job import Job

FAST = dict(backoff_base=0.001, backoff_cap=0.002, poll_interval=0.02)


def _job(job_id=1, submit=0.0, runtime=100.0, procs=1, deadline=1e6,
         budget=1e9, penalty_rate=1.0):
    return Job(
        job_id=job_id,
        submit_time=submit,
        runtime=runtime,
        procs=procs,
        estimate=runtime,
        deadline=deadline,
        budget=budget,
        penalty_rate=penalty_rate,
    )


def _service(policy="FCFS-BF", model="bid", procs=8, faults=None, seed=0):
    return CommercialComputingService(
        make_policy(policy),
        make_model(model),
        total_procs=procs,
        fault_config=faults,
        fault_seed=seed,
    )


#: effectively failure-free per-node process: isolates the domain layer.
QUIET_MTBF = 1e12


# -- topology ------------------------------------------------------------------


def test_topology_membership_and_partial_last_rack():
    topo = FaultTopology(total_nodes=10, rack_size=4)
    assert topo.n_racks == 3
    assert topo.rack_nodes(0) == (0, 1, 2, 3)
    assert topo.rack_nodes(2) == (8, 9)  # partial last rack
    assert topo.node_peers(9) == (8,)
    assert topo.node_peers(11) == (8, 9)  # commissioned id inside rack 2
    assert topo.node_peers(12) == ()  # beyond the last rack
    assert topo.rack_of(5) == 1
    assert topo.domain_nodes("node7") == (7,)
    assert topo.domain_nodes("rack1") == (4, 5, 6, 7)
    with pytest.raises(ValueError):
        topo.domain_nodes("rack3")
    with pytest.raises(ValueError):
        topo.domain_nodes("site0")  # no site layer configured


def test_topology_site_layer_and_peers():
    topo = FaultTopology(total_nodes=16, rack_size=4, site_racks=2)
    assert topo.n_sites == 2
    assert topo.site_of(5) == 0 and topo.site_of(9) == 1
    assert topo.site_nodes(1) == tuple(range(8, 16))
    # Node peers are rack-mates only.
    assert set(topo.node_peers(5)) == {4, 6, 7}
    # Rack peers stay within the site when a site layer exists.
    assert topo.rack_peers(0) == ("rack1",)
    assert topo.rack_peers(3) == ("rack2",)
    # Without a site layer every other rack is a peer.
    flat = FaultTopology(total_nodes=12, rack_size=4)
    assert set(flat.rack_peers(1)) == {"rack0", "rack2"}


@pytest.mark.parametrize("total,rack_size,site_racks", [
    (10, 4, 0),   # short last rack
    (16, 4, 2),   # site layer
    (12, 4, 0),   # racks divide evenly
    (8, 0, 0),    # no rack layer (domain_size=0)
])
def test_node_peers_are_rack_mates_for_every_node(total, rack_size, site_racks):
    """Every node's peers, base and commissioned ids alike, equal its
    rack-mates; the second call returns the memoised tuple, and the memo
    leaves equality and serialisation alone."""
    topo = FaultTopology(total, rack_size, site_racks)

    def rack_mates(node_id):
        if rack_size == 0 or node_id // rack_size >= topo.n_racks:
            return ()
        return tuple(n for n in topo.rack_nodes(node_id // rack_size) if n != node_id)

    # Ids past the base machine: the rest of a short last rack, then beyond.
    for node_id in range(total + 2 * max(rack_size, 1)):
        peers = topo.node_peers(node_id)
        assert peers == rack_mates(node_id), node_id
        assert topo.node_peers(node_id) is peers
    assert topo == FaultTopology(total, rack_size, site_racks)
    assert topo.to_dict() == {"total_nodes": total, "rack_size": rack_size,
                              "site_racks": site_racks}


def test_topology_serialisation_and_validation():
    topo = FaultTopology(total_nodes=16, rack_size=4, site_racks=2)
    assert FaultTopology.from_dict(topo.to_dict()) == topo
    with pytest.raises(ValueError):
        FaultTopology.from_dict({**topo.to_dict(), "bogus": 1})
    with pytest.raises(ValueError):
        FaultTopology(total_nodes=8, rack_size=0, site_racks=2)  # site w/o rack
    # No rack layer: nodes have no peers and rack names are invalid.
    flat = FaultTopology(total_nodes=8)
    assert flat.node_peers(0) == ()
    with pytest.raises(ValueError):
        flat.domain_nodes("rack0")


# -- config cross-field validation ---------------------------------------------


def test_domain_config_cross_field_validation():
    with pytest.raises(ValueError, match="domain_size"):
        FaultConfig(site_racks=2)
    with pytest.raises(ValueError, match="domain_size"):
        FaultConfig(domain_mtbf=1000.0)
    with pytest.raises(ValueError, match="domain_size"):
        FaultConfig(cascade_prob=0.5)
    with pytest.raises(ValueError):
        FaultConfig(domain_size=4, cascade_prob=1.5)  # prob out of range
    with pytest.raises(ValueError, match="site_racks"):
        FaultConfig(domain_size=4, site_mtbf=1000.0)
    with pytest.raises(ValueError):
        FaultConfig(elastic_model="quantum")
    with pytest.raises(ValueError, match="schedule"):
        FaultConfig(elastic_model="scripted")  # scripted needs a schedule
    with pytest.raises(ValueError):
        FaultConfig(elastic_schedule=((10.0, 2),))  # schedule without model
    with pytest.raises(ValueError, match="interval"):
        FaultConfig(elastic_model="stochastic", elastic_max_extra=2)


def test_domain_config_roundtrips_through_dict():
    config = FaultConfig(
        enabled=True, domain_size=4, site_racks=2,
        domain_mtbf=50_000.0, cascade_prob=0.25,
        elastic_model="scripted", elastic_schedule=((100.0, 2), (500.0, -1)),
    )
    assert config.has_correlated_faults and config.has_elastic
    assert FaultConfig.from_dict(
        json.loads(json.dumps(config.to_dict()))
    ) == config


# -- atomic domain outages -----------------------------------------------------


def test_scripted_rack_outage_downs_all_members_atomically():
    config = FaultConfig(
        enabled=True, mtbf=QUIET_MTBF, domain_size=4,
        domain_schedule=((50.0, "rack0", 200.0),),
    )
    service = _service(procs=8, faults=config)
    service.run([_job(runtime=500.0, procs=8)])
    stats = service.injector.stats
    assert stats.domain_outages == 1
    assert stats.failures == 4  # every member of rack0, nobody else
    assert stats.repairs == 4
    assert sorted(stats.per_node_failures) == [0, 1, 2, 3]
    # The 8-proc job lost nodes and recovered through the normal path.
    record = service.record_of(service.collect().records[0].job)
    assert record.interruptions == 1 and not record.failed


def test_a_rack_outage_rerates_the_time_shared_cluster_once():
    # Eight two-node Libra jobs share sixteen nodes; rack0's eight nodes
    # fail as one batch, and the survivors are re-rated once, not per node.
    config = FaultConfig(
        enabled=True, mtbf=QUIET_MTBF, domain_size=8,
        domain_schedule=((50.0, "rack0", 200.0),),
    )
    service = _service("Libra", procs=16, faults=config)
    cluster = service.cluster
    fail_node = cluster.fail_node
    rerates = []

    def counted_fail_node(node_ids):
        before = PERF.counters.get("cluster.time.reschedules", 0)
        killed = fail_node(node_ids)
        rerates.append(PERF.counters.get("cluster.time.reschedules", 0) - before)
        return killed

    cluster.fail_node = counted_fail_node
    with perf.capture():
        service.run([_job(i, runtime=1_000.0, procs=2) for i in range(1, 9)])
    stats = service.injector.stats
    assert stats.domain_outages == 1 and stats.failures == 8
    assert stats.jobs_killed > 0
    assert sum(rerates) == 1


def test_scripted_site_outage_covers_every_rack_in_the_site():
    config = FaultConfig(
        enabled=True, mtbf=QUIET_MTBF, domain_size=2, site_racks=2,
        domain_schedule=((30.0, "site0", 100.0),),
    )
    service = _service(procs=8, faults=config)
    service.run([_job(runtime=400.0, procs=8)])
    stats = service.injector.stats
    assert stats.domain_outages == 1
    assert sorted(stats.per_node_failures) == [0, 1, 2, 3]  # racks 0+1


# -- cascades ------------------------------------------------------------------


def test_cascade_prob_one_drags_down_every_rack_mate():
    config = FaultConfig(
        enabled=True, model="scripted", schedule=((50.0, 0, 200.0),),
        domain_size=4, cascade_prob=1.0, cascade_delay=5.0,
    )
    service = _service(procs=8, faults=config)
    service.run([_job(runtime=500.0, procs=8)])
    stats = service.injector.stats
    # Node 0's failure propagates to rack-mates 1, 2, 3 — and stops there
    # (cascade_depth=1), so rack1 never hears about it.
    assert stats.cascade_propagations == 3
    assert stats.failures == 4
    assert sorted(stats.per_node_failures) == [0, 1, 2, 3]


def test_cascade_prob_zero_keeps_failures_independent():
    config = FaultConfig(
        enabled=True, model="scripted", schedule=((50.0, 0, 200.0),),
        domain_size=4, cascade_prob=0.0,
    )
    service = _service(procs=8, faults=config)
    service.run([_job(runtime=500.0, procs=8)])
    stats = service.injector.stats
    assert stats.cascade_propagations == 0
    assert stats.failures == 1


def test_correlated_stochastic_runs_are_deterministic_and_prob_sensitive():
    base = ExperimentConfig(n_jobs=40, total_procs=16).with_values(
        fault_mtbf=60_000.0, fault_mttr=600.0,
        fault_domain_size=4, fault_domain_mtbf=20_000.0,
    )
    calm = base.with_values(fault_cascade_prob=0.0)
    wild = base.with_values(fault_cascade_prob=1.0)
    assert run_single(calm, "FCFS-BF", "bid") == run_single(calm, "FCFS-BF", "bid")
    assert run_single(wild, "FCFS-BF", "bid") == run_single(wild, "FCFS-BF", "bid")
    assert run_single(calm, "FCFS-BF", "bid") != run_single(wild, "FCFS-BF", "bid")


# -- elastic capacity ----------------------------------------------------------


def test_scripted_elastic_grows_then_shrinks_spaceshared():
    config = FaultConfig(
        enabled=True, mtbf=QUIET_MTBF, elastic_model="scripted",
        elastic_schedule=((100.0, 2), (5000.0, -1)),
    )
    service = _service(procs=4, faults=config)
    service.run([_job(runtime=8000.0)])
    stats = service.injector.stats
    assert stats.nodes_commissioned == 2
    assert stats.nodes_decommissioned == 1
    assert service.cluster.total_procs == 5  # 4 base + 2 − 1
    # LIFO: node 5 (the newest) went; node 4 is still in service.
    assert service.injector.commissioned_nodes() == (4,)


def test_scripted_elastic_below_base_size_raises():
    config = FaultConfig(
        enabled=True, mtbf=QUIET_MTBF, elastic_model="scripted",
        elastic_schedule=((10.0, -1),),
    )
    service = _service(procs=4, faults=config)
    with pytest.raises(ValueError, match="below the base machine size"):
        service.run([_job(runtime=100.0)])


def test_elastic_commission_expands_timeshared_admission():
    # 2-node time-shared cluster; a 3-proc job is only feasible after the
    # third node is commissioned at t=50.
    config = FaultConfig(
        enabled=True, mtbf=QUIET_MTBF, elastic_model="scripted",
        elastic_schedule=((50.0, 1),),
    )
    service = _service(policy="Libra", model="commodity", procs=2, faults=config)
    keeper = _job(job_id=1, runtime=400.0, deadline=1e6)
    wide = _job(job_id=2, submit=100.0, runtime=50.0, procs=3, deadline=1e6)
    service.run([keeper, wide])
    assert service.record_of(wide).deadline_met
    assert service.cluster.total_procs == 3


def test_stochastic_elastic_is_deterministic():
    config = ExperimentConfig(n_jobs=40, total_procs=16).with_values(
        fault_mtbf=80_000.0, fault_elastic_model="stochastic",
        fault_elastic_interval=5_000.0, fault_elastic_max_extra=4,
    )
    assert run_single(config, "FCFS-BF", "bid") == run_single(
        config, "FCFS-BF", "bid"
    )


# -- schema & sweepability -----------------------------------------------------


def test_schema_version_bumped_for_fault_domains():
    assert SCHEMA_VERSION == 3


def test_every_domain_knob_is_a_virtual_sweep_field_and_moves_the_digest():
    base = ExperimentConfig(n_jobs=20, total_procs=16).with_values(
        fault_mtbf=50_000.0
    )
    reference = RunKey(base, "FCFS-BF", "bid").digest
    for knob, value in (
        ("fault_domain_size", 4),
        ("fault_cascade_prob", 0.5),
        ("fault_elastic_interval", 1000.0),
        ("fault_site_racks", 2),
    ):
        # fault_* knobs compose like any scenario knob …
        changed = base.with_values(
            **{knob: value, "fault_domain_size": 4, "fault_site_racks": 0}
            if knob != "fault_domain_size" and knob != "fault_site_racks"
            else {"fault_domain_size": 4, knob: value}
        )
        assert changed.faults.enabled
        # … and every one of them changes the content address.
        assert RunKey(changed, "FCFS-BF", "bid").digest != reference


def test_correlated_sweep_produces_risk_table():
    from repro.experiments.faultsweep import cascade_scenario, run_fault_sweep

    base = ExperimentConfig(n_jobs=20, total_procs=16).with_values(
        fault_domain_size=4, fault_domain_mtbf=20_000.0,
        fault_domain_mttr=600.0, fault_mtbf=100_000.0,
    )
    result = run_fault_sweep(["FCFS-BF"], "bid", base, cascade_scenario((0.0, 1.0)))
    assert len(result.rows) == 2
    assert {row.level for row in result.rows} == {0.0, 1.0}
    text = result.table()
    assert "cascade" in text and "volatility" in text


# -- grid parity: the acceptance bar -------------------------------------------

POLICIES = ["FCFS-BF", "Libra"]
SCENARIO = "job mix"
CORRELATED = ExperimentConfig(n_jobs=20, total_procs=16).with_values(
    fault_mtbf=60_000.0, fault_mttr=600.0,
    fault_domain_size=4, fault_domain_mtbf=25_000.0,
    fault_cascade_prob=0.5,
)


def _correlated_reference() -> dict:
    return run_grid(POLICIES, "bid", CORRELATED, "A",
                    [scenario_by_name(SCENARIO)], RunStore()).to_dict()


@pytest.mark.slow
def test_correlated_grid_parity_serial_parallel_resumed_farm(tmp_path):
    """Serial, 2-worker pool, resumed, and 2-worker farm execution of a
    correlated-fault grid are all bit-identical."""
    from repro.farm.coordinator import Farm
    from repro.farm.plan import plan_from_args
    from repro.farm.service import FarmService
    from repro.farm.worker import WorkerAgent

    reference = _correlated_reference()
    scenarios = [scenario_by_name(SCENARIO)]
    plan = grid_plan(POLICIES, "bid", CORRELATED, "A", scenarios)

    # Process pool.
    pool_store = RunStore()
    execution = execute_plan(
        plan, pool_store, n_workers=2, execution=ExecutionPolicy(**FAST)
    )
    assert execution.complete
    assert assemble_grid(
        pool_store, POLICIES, "bid", CORRELATED, "A", scenarios
    ).to_dict() == reference

    # Interrupted + resumed against a disk store.
    disk = RunStore(tmp_path / "store")
    unique = []
    seen = set()
    for item in plan:
        digest = RunKey(*item).digest
        if digest not in seen:
            seen.add(digest)
            unique.append(item)
    execute_plan(unique[: len(unique) // 2], disk)  # partial first pass
    resumed = RunStore(tmp_path / "store")
    grid = run_grid(POLICIES, "bid", CORRELATED, "A", scenarios, resumed)
    assert resumed.misses == len(unique) - len(unique) // 2
    assert grid.to_dict() == reference

    # Two farm workers splitting the same job.
    farm = Farm(tmp_path / "farm")
    job_id = farm.create_job(
        plan_from_args(POLICIES, "bid", CORRELATED, "A", scenarios=(SCENARIO,))
    )
    first = WorkerAgent(farm, worker_id="w1").run(max_units=5)
    second = WorkerAgent(farm, worker_id="w2").run(drain=True)
    assert first + second == len(unique)
    assert FarmService(farm, poll_interval=0.01).serve(
        max_jobs=1, timeout=120.0) == [job_id]
    assert json.loads(farm.result_path(job_id).read_text()) == reference


# -- chaos: correlated batch loss ----------------------------------------------


@pytest.mark.slow
def test_batch_chaos_kills_whole_batch_and_grid_recovers(tmp_path):
    """A worker dies holding a multi-run batch (the shape of a domain
    outage); the supervisor splits the batch uncharged and the grid
    completes bit-identically."""
    reference = _correlated_reference()
    scenarios = [scenario_by_name(SCENARIO)]
    chaos_dir = tmp_path / "chaos"
    chaos_dir.mkdir()
    plan = grid_plan(POLICIES, "bid", CORRELATED, "A", scenarios)
    store = RunStore(tmp_path / "store")
    with crashkit.crashing_batches(chaos_dir, 1):
        execution = execute_plan(
            plan, store, n_workers=2,
            execution=ExecutionPolicy(max_retries=0, on_error="degrade", **FAST),
        )
    assert len(list(chaos_dir.glob("*.batchkilled"))) == 1
    # The batch members were innocent: nobody was charged, nothing failed.
    assert execution.failed == ()
    assert execution.complete
    grid = assemble_grid(
        RunStore(tmp_path / "store"), POLICIES, "bid", CORRELATED, "A", scenarios
    )
    assert grid.to_dict() == reference


@pytest.mark.slow
def test_domain_outage_mid_grid_degrades_with_gap_accounting(tmp_path):
    """A worker is killed holding a charged singleton run: degrade-mode
    assembly journals the gap instead of aborting, and a clean rerun
    against the same store reproduces the reference bit-identically.

    ``batch_size=1`` pins the kill to a singleton dispatch — a kill
    inside a multi-run batch would be split and retried uncharged (the
    previous test), which is recovery, not a gap."""
    reference = _correlated_reference()
    scenarios = [scenario_by_name(SCENARIO)]
    chaos_dir = tmp_path / "chaos"
    chaos_dir.mkdir()
    plan = grid_plan(POLICIES, "bid", CORRELATED, "A", scenarios)
    store = RunStore(tmp_path / "store")
    with crashkit.crashing_units(chaos_dir, 1):
        execution = execute_plan(
            plan, store, n_workers=2,
            execution=ExecutionPolicy(max_retries=0, on_error="degrade",
                                      batch_size=1, **FAST),
        )
    # The singleton crash was charged; with zero retries it is a gap (a
    # broken pool can take in-flight siblings down with it, so >= 1).
    assert len(execution.failed) >= 1
    grid = assemble_grid(
        store, POLICIES, "bid", CORRELATED, "A", scenarios, on_missing="degrade"
    )
    assert grid.degraded and len(grid.gaps) >= 1
    assert all(gap.get("kind") for gap in grid.gaps)  # journaled reasons
    # Clean rerun on the same store fills the gap bit-identically.
    grid = run_grid(POLICIES, "bid", CORRELATED, "A", scenarios,
                    RunStore(tmp_path / "store"))
    assert grid.to_dict() == reference


# -- market: correlated provider outages ---------------------------------------


def test_outage_group_requires_an_outage_process():
    from repro.market.provider import SyntheticSpec

    with pytest.raises(ValueError, match="mtbf"):
        SyntheticSpec("p", outage_group="grid")
    spec = SyntheticSpec("p", mtbf=1000.0, outage_group="grid")
    assert SyntheticSpec.from_dict(spec.to_dict()) == spec


def test_grouped_providers_share_outage_instants():
    from repro.market.marketplace import Marketplace
    from repro.market.provider import SyntheticSpec
    from repro.market.stream import market_job_stream

    def final_failures(specs):
        market = Marketplace(specs, n_users=50, seed=3)
        market.run(market_job_stream(800, seed=3))
        return {name: market.providers[name].failures for name in market.names}

    grouped = final_failures([
        SyntheticSpec("a", capacity=96.0, mtbf=5_000.0, mttr=500.0,
                      outage_group="grid"),
        SyntheticSpec("b", capacity=96.0, mtbf=5_000.0, mttr=500.0,
                      outage_group="grid"),
        SyntheticSpec("steady", capacity=96.0, admission="deadline"),
    ])
    # Both group members folded exactly the same outages.
    assert grouped["a"] == grouped["b"] > 0

    private = final_failures([
        SyntheticSpec("a", capacity=96.0, mtbf=5_000.0, mttr=500.0),
        SyntheticSpec("b", capacity=96.0, mtbf=5_000.0, mttr=500.0),
        SyntheticSpec("steady", capacity=96.0, admission="deadline"),
    ])
    # Private substreams: same marginal law, different instants.
    assert private["a"] > 0 and private["b"] > 0


def test_grouped_provider_mtbf_mismatch_is_rejected():
    from repro.market.marketplace import Marketplace
    from repro.market.provider import SyntheticSpec

    with pytest.raises(ValueError, match="disagrees"):
        Marketplace([
            SyntheticSpec("a", mtbf=5_000.0, mttr=500.0, outage_group="grid"),
            SyntheticSpec("b", mtbf=9_000.0, mttr=500.0, outage_group="grid"),
        ], n_users=10)


def test_correlated_market_sweep_compares_independent_vs_grouped():
    from repro.experiments.marketsweep import (
        correlated_market_config,
        correlated_market_scenario,
        run_market_sweep,
    )

    base = correlated_market_config(n_users=100, n_jobs=400)
    result = run_market_sweep(base, scenario=correlated_market_scenario())
    assert result.complete
    levels = {row.level for row in result.rows}
    assert levels == {None, "grid"}
    assert "outage_group" in result.table()
