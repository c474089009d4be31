"""The farm smokes: the work-stealing farm's two contracts, through the CLI.

A grid submitted with ``repro grid --farm`` and executed by a 2-worker
``repro farm serve`` fleet is bit-identical to a serial ``run_grid``, and
a SIGKILLed worker's orphaned lease is stolen so the job still completes
with no gaps.  Each test is one step of the ``farm-smoke`` CI job, which
runs it under the same step name; the bodies are the scripts those steps
used to run inline, with each farm in the test's own ``tmp_path``.

They fork worker processes and SIGKILL one, so they are opt-in: run them
with ``pytest -m smoke`` (tier-1 does not collect ``tests/smoke/``).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments.runner import run_grid
from repro.experiments.scenarios import ExperimentConfig, scenario_by_name
from repro.farm import Coordinator, Farm, plan_from_args

pytestmark = pytest.mark.smoke

SRC = Path(repro.__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=str(SRC))
POLICIES = ["FCFS-BF", "Libra"]
BASE = ExperimentConfig(n_jobs=20, total_procs=16)


def reference_grid() -> dict:
    return run_grid(POLICIES, "bid", BASE, "A", [scenario_by_name("job mix")]).to_dict()


def repro_cli(*args: str, timeout: float) -> None:
    subprocess.run([sys.executable, "-m", "repro", *args], env=ENV,
                   timeout=timeout, check=True)


def test_farmed_grid_is_bit_identical_to_serial(tmp_path):
    """Farmed grid (2 workers) is bit-identical to serial."""
    farm_dir = str(tmp_path / "farm-ci")
    repro_cli("grid", "--policies", *POLICIES, "--scenario", "job mix",
              "--jobs", "20", "--procs", "16", "--farm", farm_dir, timeout=60)
    repro_cli("farm", "serve", "--farm", farm_dir, "--poll", "0.2", "--workers", "2",
              "--max-jobs", "1", "--timeout", "180", timeout=240)

    reference = reference_grid()
    farm = Farm(farm_dir)
    [job_id] = farm.job_ids()
    result = json.loads(farm.result_path(job_id).read_text())
    assert result == reference, "farmed grid differs from serial"
    progress = farm.progress(job_id)
    assert progress.done == progress.units and not progress.failed, progress
    assert len(farm.store().disk_digests()) >= progress.units
    print(f"farm smoke: job {job_id}, {progress.units} units across "
          f"{len(farm.worker_ids())} workers, bit-identical to serial")


def test_sigkilled_workers_lease_is_stolen_with_zero_gaps(tmp_path):
    """SIGKILLed worker's lease is stolen; zero gaps."""
    reference = reference_grid()

    farm_dir = tmp_path / "farm-chaos"
    farm = Farm(farm_dir)
    plan = plan_from_args(POLICIES, "bid", BASE, "A", scenarios=("job mix",))
    job_id = farm.create_job(plan)

    chaos_dir = tmp_path / "chaos"
    chaos_dir.mkdir()
    worker_cmd = [sys.executable, "-m", "repro", "farm", "worker",
                  "--farm", str(farm_dir), "--lease", "2", "--poll", "0.1",
                  "--exit-when-done"]
    # Worker "victim" self-SIGKILLs right after claiming its first
    # lease (the chaos hook fires post-claim, pre-execute), leaving
    # exactly the orphaned lease the stealing protocol exists for.
    victim = subprocess.Popen(
        worker_cmd + ["--worker-id", "victim"],
        env=dict(ENV, REPRO_CHAOS_DIR=str(chaos_dir), REPRO_CHAOS_KILL="1"),
    )
    victim.wait(timeout=120)
    assert victim.returncode == -9, f"victim exited {victim.returncode}"
    killed = [n for n in os.listdir(chaos_dir) if n.endswith(".killed")]
    assert len(killed) == 1, f"chaos never fired: {killed}"
    leases = list(farm.leases_dir(job_id).glob("*.json"))
    assert len(leases) == 1, f"victim left no orphan lease: {leases}"

    survivor = subprocess.Popen(worker_cmd + ["--worker-id", "survivor"], env=ENV)
    grid = Coordinator(farm, poll_interval=0.2).drive(job_id, timeout=180)
    survivor.wait(timeout=60)
    assert not grid.degraded and not grid.gaps, grid.gaps
    result = json.loads(farm.result_path(job_id).read_text())
    assert result == reference, "post-steal grid differs from serial"
    progress = farm.progress(job_id)
    assert progress.leased == 0, progress
    print(f"steal smoke: victim SIGKILLed holding a lease, survivor "
          f"finished {progress.done}/{progress.units} units, "
          f"grid bit-identical, zero gaps")
