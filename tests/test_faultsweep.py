"""Fault sweeps as one-scenario grids: parity with the serial loop, and
the pipeline's pool and warm-store paths.

``run_fault_sweep`` plans with ``grid_plan``, executes with
``execute_plan`` and assembles with ``assemble_grid``; the reference in
``faultsweep_reference`` is the serial ``run_single`` loop it replaced.
Both are compared with ``==`` rather than against pinned floats, so the
check holds under either ``sum()`` semantics (CPython ≥ 3.12 compensates
float sums).
"""

import pytest

from faultsweep_reference import reference_fault_sweep
from repro.experiments.faultsweep import (
    assemble_fault_sweep,
    cascade_scenario,
    mtbf_scenario,
    run_fault_sweep,
)
from repro.experiments.pipeline import execute_plan, grid_plan
from repro.experiments.runstore import RunStore, StoreError
from repro.experiments.scenarios import ExperimentConfig
from repro.faults.config import CORRELATED_FAULTS

POLICIES = ("FCFS-BF", "EDF-BF", "Libra")
BASE = ExperimentConfig(n_jobs=40, total_procs=16)

#: (fault base, scenario) of the two shipped sweeps at a small scale.
SWEEPS = {
    "mtbf": (
        BASE.with_values(fault_mttr=3_600.0),
        mtbf_scenario((21_600.0, 86_400.0, 345_600.0)),
    ),
    "cascade": (
        BASE.with_values(
            fault_mtbf=CORRELATED_FAULTS.mtbf,
            fault_domain_size=4,
            fault_domain_mtbf=CORRELATED_FAULTS.domain_mtbf,
            fault_domain_mttr=CORRELATED_FAULTS.domain_mttr,
            fault_cascade_delay=CORRELATED_FAULTS.cascade_delay,
        ),
        cascade_scenario((0.0, 0.5, 1.0)),
    ),
}


def as_tuples(result):
    return [(r.level, r.availability, r.policy, r.objectives) for r in result.rows]


@pytest.mark.parametrize("set_name", ["A", "B"])
@pytest.mark.parametrize("sweep", sorted(SWEEPS))
def test_fault_sweep_matches_serial_reference(sweep, set_name):
    fault_base, scenario = SWEEPS[sweep]
    result = run_fault_sweep(
        POLICIES, "bid", fault_base, scenario, RunStore(), set_name
    )
    rows, separate, integrated = reference_fault_sweep(
        POLICIES, "bid", fault_base, scenario, set_name
    )
    assert as_tuples(result) == rows
    assert result.separate == separate
    assert result.integrated == integrated
    assert result.policies == POLICIES
    assert result.scenario == scenario


def test_pool_and_warm_store_match_serial():
    fault_base, scenario = SWEEPS["cascade"]
    serial = run_fault_sweep(POLICIES, "bid", fault_base, scenario, RunStore(), "B")
    plan = grid_plan(POLICIES, "bid", fault_base, "B", [scenario])
    store = RunStore()
    cold = execute_plan(plan, store, n_workers=2)
    assert cold.executed == len(POLICIES) * len(scenario.values)
    assemble = (store, POLICIES, "bid", fault_base, scenario, "B")
    assert assemble_fault_sweep(*assemble) == serial
    warm = execute_plan(plan, store)
    assert warm.executed == 0 and warm.hits == warm.accesses
    assert assemble_fault_sweep(*assemble) == serial


def test_assembly_of_an_incomplete_store_raises():
    fault_base, scenario = SWEEPS["mtbf"]
    store = RunStore()
    execute_plan(grid_plan(POLICIES[:1], "bid", fault_base, "A", [scenario]), store)
    with pytest.raises(StoreError):
        assemble_fault_sweep(store, POLICIES, "bid", fault_base, scenario)


def test_table_prints_levels_availability_and_racks():
    fault_base, scenario = SWEEPS["cascade"]
    text = run_fault_sweep(["FCFS-BF"], "bid", fault_base, scenario).table()
    lines = text.splitlines()
    assert lines[0] == (
        "cascade sweep — model=bid recovery=resubmit MTTR=1h "
        "racks of 4 rack-MTBF=24h rack-MTTR=1h"
    )
    assert lines[2].split()[:3] == ["cascade", "avail", "policy"]
    assert [line.split()[:3] for line in lines[3:6]] == [
        ["0.00", "0.9897", "FCFS-BF"],
        ["0.50", "0.9897", "FCFS-BF"],
        ["1.00", "0.9897", "FCFS-BF"],
    ]
