"""Fault smoke: a scripted failure schedule replays bit-identically, the two
recovery disciplines price the same failures differently, and the
fault-free path is unperturbed — the dependability subsystem's core
contract, on the space-shared and both time-shared cluster models.  A
correlated fault sweep run twice through the CLI on one run store prints
the same output cold and warm.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments.runner import run_single
from repro.experiments.scenarios import ExperimentConfig

ENV = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))


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


def test_correlated_fault_sweep_replays_from_the_run_store(tmp_path):
    """A cold and a warm run of one correlated sweep, each in a fresh
    process on the same cache directory, print identical output."""
    sweep = [sys.executable, "-m", "repro", "faults", "--sweep", "correlated",
             "--jobs", "20", "--procs", "16", "--levels", "0", "1",
             "--cache-dir", str(tmp_path)]
    cold, warm = (subprocess.run(sweep, env=ENV, capture_output=True, text=True,
                                 timeout=120, check=True).stdout for _ in range(2))
    print(warm)
    assert cold == warm
