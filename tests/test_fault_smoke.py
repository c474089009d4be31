"""Fault smoke: a scripted failure schedule replays bit-identically, the two
recovery disciplines price the same failures differently, and the
fault-free path is unperturbed — the dependability subsystem's core
contract, on the space-shared and both time-shared cluster models.
"""

import pytest

from repro.experiments.runner import run_single
from repro.experiments.scenarios import ExperimentConfig


@pytest.mark.parametrize("policy", ["EDF-BF", "Libra", "LibraRiskD"])
def test_scripted_fault_scenario_is_deterministic(policy):
    schedule = tuple((float(t), n, 400.0) for t, n in
                     [(3000.0, 1), (9000.0, 5), (15000.0, 2), (24000.0, 0)])
    base = ExperimentConfig(n_jobs=80, total_procs=8).with_values(
        fault_model="scripted",
        fault_schedule=schedule,
        fault_enabled=True,
        arrival_delay_factor=0.05,
    )
    resub = base.with_values(fault_recovery="resubmit")
    ckpt = base.with_values(fault_recovery="checkpoint")

    a1 = run_single(resub, policy, "bid")
    a2 = run_single(resub, policy, "bid")
    b1 = run_single(ckpt, policy, "bid")
    b2 = run_single(ckpt, policy, "bid")

    assert a1 == a2, "resubmit run is not reproducible"
    assert b1 == b2, "checkpoint run is not reproducible"
    assert a1 != b1, "recovery discipline did not change the outcome"
    print("fault smoke: resubmit", a1)
    print("fault smoke: checkpoint", b1)


def test_fault_free_path_is_unperturbed():
    config = ExperimentConfig(n_jobs=60, total_procs=16)
    assert not config.faults.enabled
    r1 = run_single(config, "FCFS-BF", "bid")
    r2 = run_single(config, "FCFS-BF", "bid")
    assert r1 == r2, "fault-free run is not reproducible"
    print("fault-free smoke:", r1)
