"""Seeded end-to-end and per-layer benchmark of the risk-analysis simulator.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload repeats a *round* — the unit of work a user waits for — until
``--seconds`` have been measured.  A run draws ``INPUT_SETS`` input sets from
``--seed`` (each cell of each set with its own trace and failures, so one
seed always yields the same inputs and a run averages over many of them) and
cycles through them, ending on a whole cycle.

Workloads (each chosen to stress different layers):

``space_shared``
    One cell per space-shared policy and economic model of Table V
    (FCFS-BF, SJF-BF, EDF-BF and FirstReward): EASY backfill queue scans
    and budget quotes dominate.  Failure-free, no run store.
``time_shared``
    Libra, Libra+$ (static share) and LibraRiskD (dynamic share) under
    both models: the time-shared cluster's rate recomputation dominates.
    Failure-free, no run store.
``grid_store``
    A reduced Table VI risk grid executed into a disk run store, then
    re-assembled from a fresh store handle, where every access is a hit:
    pipeline dedupe, store I/O, normalisation and Eqs. 5-6.
``faults``
    Correlated rack outages, cascades and checkpoint recovery injected into
    both cluster models: the fault injector and the failure paths of the
    clusters.  The only workload with faults enabled.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
round latency, peak memory, and the median of several fresh-interpreter
set-ups (import plus the first round's inputs).  Round latency is the
fastest repetition of each input set, averaged over the sets, and each
cycle of sets runs pinned to the next CPU: on the shared two-CPU virtual
machines this was tuned on, each CPU alternates between fast phases and
phases up to twice as slow lasting seconds to tens of seconds, which move
a median or mean of all rounds by more than any change worth detecting.
With
``--trace 1`` the rounds run under ``cProfile`` with the perf registry on,
and the metrics are the median traced round, per-layer self times (time in
library and builtin calls is charged to the ``repro`` layer that made them)
and per-layer counters, all per round.  Self time of ``repro.faults`` is
not reported: three workloads never call it, and the failure cost it
causes shows up in the cluster layer.

Outputs are checked: every cell's objectives must be in range; after the
measured window, round 0 is re-simulated on the heap event list (the
reference backend), where each SLA must resolve exactly once, the ledger
must equal the per-job utilities, and the objectives must match the
measured run bit for bit.  The grid's warm pass must be all hits and
assemble to the same analysis as the cold pass.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import math
import os
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: scratch space for run stores, inside the checkout, removed on exit.
WORK = ROOT / ".perfbench_work"

#: distinct input sets per run.  Round ``r`` runs set ``r % INPUT_SETS``,
#: so each set recurs every few seconds across the whole measured window.
INPUT_SETS = 8
#: seconds of unmeasured warm-up rounds: they pay lazy imports and
#: first-call costs, and give a virtual CPU time to reach its steady clock.
WARMUP_SECONDS = 2.0
#: the ``repro`` subpackages whose self time is reported (``experiments``
#: includes the runner, pipeline and run store); every workload calls each.
TIMED_LAYERS = (
    "sim", "policies", "cluster", "service", "economy", "workload",
    "experiments", "core",
)
#: per-layer counters: metric name -> perf registry counter.
LAYER_COUNTERS = {
    "sim_events": "sim.events_executed",
    "sim_events_scheduled": "sim.events_scheduled",
    "policy_decisions": "policy.decisions",
    "policy_rejections": "policy.rejections",
    "cluster_reschedules": "cluster.time.reschedules",
    "faults_injected": "faults.injected",
    "faults_jobs_killed": "faults.jobs_killed",
    "domain_outages": "faults.domain_outages",
    "cascade_propagations": "faults.cascade_propagations",
    "cache_hits": "runner.cache_hits",
    "cache_misses": "runner.cache_misses",
    "store_bytes_written": "runstore.bytes_written",
}


#: Stochastic correlated regime: per-node MTBF of four days, ten-day rack
#: outages over racks of eight, 25 % cascades to rack-mates, checkpoint
#: recovery: every round injects hundreds of node failures.
CORRELATED = (
    ("fault_mtbf", 345_600.0),
    ("fault_mttr", 1_800.0),
    ("fault_recovery", "checkpoint"),
    ("fault_domain_size", 8),
    ("fault_domain_mtbf", 864_000.0),
    ("fault_cascade_prob", 0.25),
)
#: Scripted regime: four two-hour rack outages at fixed instants, checkpoint
#: recovery.  Time-shared cells use it because under the stochastic regime
#: their cost varies several-fold between seeds (coefficient of variation
#: 0.5-1.3 per cell), too much for a steady end-to-end figure.
RACK_OUTAGES = (
    ("fault_model", "scripted"),
    ("fault_recovery", "checkpoint"),
    ("fault_domain_size", 8),
    ("fault_domain_schedule", (
        (7_200.0, "rack1", 7_200.0),
        (28_800.0, "rack5", 7_200.0),
        (57_600.0, "rack9", 7_200.0),
        (108_000.0, "rack13", 7_200.0),
    )),
)


@dataclass(frozen=True)
class Cell:
    """One simulation: a policy under an economic model at a job count,
    optionally under a fault regime (virtual ``fault_*`` fields)."""

    policy: str
    model: str
    n_jobs: int
    faults: tuple[tuple[str, object], ...] = ()


@dataclass(frozen=True)
class Grid:
    """A reduced Table VI grid: policies x the values of some scenarios."""

    policies: tuple[str, ...]
    model: str
    scenarios: tuple[str, ...]
    n_jobs: int


@dataclass(frozen=True)
class Workload:
    """What one round runs: independent cells, or one grid."""

    cells: tuple[Cell, ...] = ()
    grid: Grid | None = None


WORKLOADS = {
    "space_shared": Workload(cells=(
        Cell("FCFS-BF", "commodity", 500),
        Cell("SJF-BF", "commodity", 500),
        Cell("EDF-BF", "commodity", 500),
        Cell("FCFS-BF", "bid", 500),
        Cell("EDF-BF", "bid", 500),
        Cell("FirstReward", "bid", 500),
    )),
    "time_shared": Workload(cells=(
        Cell("Libra", "commodity", 120),
        Cell("Libra+$", "commodity", 120),
        Cell("Libra", "bid", 120),
        Cell("LibraRiskD", "bid", 120),
    )),
    "grid_store": Workload(grid=Grid(
        ("FCFS-BF", "EDF-BF", "FirstReward"), "bid",
        ("job mix", "deadline ratio"), 150,
    )),
    "faults": Workload(cells=(
        Cell("FCFS-BF", "bid", 200, CORRELATED),
        Cell("EDF-BF", "commodity", 200, CORRELATED),
        Cell("FirstReward", "bid", 200, CORRELATED),
        Cell("Libra", "commodity", 60, RACK_OUTAGES),
        Cell("LibraRiskD", "bid", 60, RACK_OUTAGES),
    )),
}


class CheckFailed(Exception):
    """An output of the program is wrong."""


def import_program():
    """Import the program from ``src/`` of this checkout, or exit 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def cell_seed(seed: int, r: int, i: int = 0) -> int:
    """Seed of cell ``i`` of round ``r``'s input set."""
    return (seed * 100_003 + r % INPUT_SETS) * 16 + i


# -- one round ----------------------------------------------------------------
class Runner:
    """Runs the rounds of one workload and checks what they return."""

    def __init__(self, name: str, seed: int) -> None:
        from repro.experiments.scenarios import ExperimentConfig, scenario_by_name

        self.name = name
        self.seed = seed
        self.workload = WORKLOADS[name]
        self._config = ExperimentConfig
        self._scenario = scenario_by_name
        #: round 0's results, re-checked against the reference path.
        self.first: list[tuple] = []

    def configs(self, r: int) -> list[tuple]:
        """The (config, policy, model) items round ``r`` simulates."""
        wl = self.workload
        if wl.grid:
            from repro.experiments.pipeline import grid_plan

            plan = grid_plan(wl.grid.policies, wl.grid.model, self._grid_base(r),
                             "A", self._grid_scenarios())
            return list(dict.fromkeys(plan))
        items = []
        for i, cell in enumerate(wl.cells):
            config = self._config(n_jobs=cell.n_jobs, seed=cell_seed(self.seed, r, i))
            if cell.faults:
                config = config.with_values(**dict(cell.faults))
            items.append((config, cell.policy, cell.model))
        return items

    def _grid_base(self, r: int):
        return self._config(n_jobs=self.workload.grid.n_jobs,
                            seed=cell_seed(self.seed, r))

    def _grid_scenarios(self) -> list:
        return [self._scenario(name) for name in self.workload.grid.scenarios]

    def run_round(self, r: int, profile=None) -> tuple[float, int]:
        """Run and check round ``r``: (timed seconds, cells delivered)."""
        if self.workload.grid:
            return self._grid_round(r, profile)
        from repro.experiments.runner import run_single

        items = self.configs(r)
        results = []
        t0 = time.perf_counter()
        if profile is not None:
            profile.enable()
        for config, policy, model in items:
            results.append(run_single(config, policy, model))
        if profile is not None:
            profile.disable()
        wall = time.perf_counter() - t0
        for item, objectives in zip(items, results):
            check_objectives(item, objectives)
        if r == 0:
            self.first = list(zip(items, results))
        return wall, len(items)

    def _grid_round(self, r: int, profile) -> tuple[float, int]:
        from repro.experiments.runner import run_grid
        from repro.experiments.runstore import RunStore

        grid = self.workload.grid
        args = (grid.policies, grid.model, self._grid_base(r), "A",
                self._grid_scenarios())
        store_dir = WORK / f"{self.name}-{r}"
        shutil.rmtree(store_dir, ignore_errors=True)
        t0 = time.perf_counter()
        if profile is not None:
            profile.enable()
        cold_store = RunStore(store_dir)
        cold = run_grid(*args, cold_store)
        warm_store = RunStore(store_dir)
        warm = run_grid(*args, warm_store)
        if profile is not None:
            profile.disable()
        wall = time.perf_counter() - t0
        items = self.configs(r)
        try:
            if warm_store.misses or warm_store.hits != cold_store.hits + cold_store.misses:
                raise CheckFailed(
                    f"warm grid pass: {warm_store.hits} hits, {warm_store.misses} "
                    f"misses; cold pass made {cold_store.hits + cold_store.misses} accesses")
            if cold_store.misses != len(items):
                raise CheckFailed(
                    f"cold grid simulated {cold_store.misses} runs, plan has {len(items)}")
            if cold.separate != warm.separate or cold.gaps or warm.gaps:
                raise CheckFailed("warm grid assembles differently from the cold grid")
            results = [warm_store.get(*item) for item in items]
            for item, objectives in zip(items, results):
                check_objectives(item, objectives)
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)
        if r == 0:
            self.first = list(zip(items, results))
        return wall, cold_store.misses + warm_store.hits

    def check_reference(self) -> int:
        """Re-simulate round 0 on the reference event list; returns cells."""
        from repro.economy.models import make_model
        from repro.experiments.runner import build_workload
        from repro.policies import make_policy
        from repro.service.provider import CommercialComputingService
        from repro.service.sla import SLAStatus
        from repro.sim.engine import Simulator

        failures = 0
        for (config, policy, model), measured in self.first:
            jobs = build_workload(config)
            service = CommercialComputingService(
                make_policy(policy), make_model(model),
                total_procs=config.total_procs, sim=Simulator(fel="heap"),
                fault_config=config.faults if config.faults.enabled else None,
                fault_seed=config.seed,
            )
            result = service.run(jobs)
            label = f"{policy}/{model} seed {config.seed}"
            records = result.records
            if len(records) != config.n_jobs:
                raise CheckFailed(f"{label}: {len(records)} SLAs for {config.n_jobs} jobs")
            finished = [rec for rec in records if rec.status is SLAStatus.FINISHED]
            if len(finished) + sum(
                    rec.status is SLAStatus.REJECTED for rec in records) != len(records):
                raise CheckFailed(f"{label}: an SLA did not resolve")
            for rec in finished:
                if not (rec.job.submit_time <= rec.start_time <= rec.finish_time):
                    raise CheckFailed(f"{label}: job {rec.job.job_id} has "
                                      "submit <= start <= finish broken")
            if len(result.ledger) != len(finished):
                raise CheckFailed(f"{label}: {len(result.ledger)} ledger entries "
                                  f"for {len(finished)} resolved SLAs")
            ledger = math.fsum(e.utility for e in result.ledger.entries)
            utilities = math.fsum(rec.utility for rec in finished)
            if not math.isclose(ledger, utilities, rel_tol=1e-9, abs_tol=1e-6):
                raise CheckFailed(f"{label}: ledger {ledger} != utilities {utilities}")
            if config.faults.enabled:
                failures += result.fault_stats["failures"]
            if result.objectives() != measured:
                raise CheckFailed(f"{label}: reference objectives "
                                  f"{result.objectives()} != measured {measured}")
        if any(cell.faults for cell in self.workload.cells) and failures == 0:
            raise CheckFailed("fault workload injected no failure in round 0")
        return len(self.first)


def check_objectives(item: tuple, objectives) -> None:
    config, policy, model = item
    label = f"{policy}/{model} seed {config.seed}"
    if objectives is None:
        raise CheckFailed(f"{label}: no result")
    values = (objectives.wait, objectives.sla, objectives.reliability,
              objectives.profitability)
    if not all(math.isfinite(v) for v in values):
        raise CheckFailed(f"{label}: non-finite objectives {objectives}")
    if objectives.wait < 0 or not 0 <= objectives.sla <= objectives.reliability <= 100:
        raise CheckFailed(f"{label}: objectives out of range {objectives}")


# -- per-layer attribution --------------------------------------------------------
def layer_of(filename: str):
    """The ``repro`` subpackage a source file belongs to, or None."""
    try:
        parts = Path(filename).resolve().relative_to(SRC / "repro").parts
    except ValueError:
        return None
    return parts[0] if len(parts) > 1 else "experiments"


def layer_self_times(profile: cProfile.Profile) -> dict[str, float]:
    """Fold profiled self time by layer, in seconds.

    Functions outside ``repro`` (builtins, the standard library) have their
    self time split among their callers in proportion to the time each
    caller spent in them, recursively, so a ``sum`` or ``heappush`` called
    by the cluster counts as cluster time.
    """
    stats = pstats.Stats(profile).stats
    shares: dict = {}

    def share(func, active: frozenset) -> dict[str, float]:
        if func in shares:
            return shares[func]
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        callers = stats.get(func, (0, 0, 0.0, 0.0, {}))[4]
        total = sum(edge[2] for edge in callers.values())
        if total <= 0 or func in active:
            return {"other": 1.0}
        out: dict[str, float] = {}
        for caller, edge in callers.items():
            for name, part in share(caller, active | {func}).items():
                out[name] = out.get(name, 0.0) + part * edge[2] / total
        shares[func] = out
        return out

    times: dict[str, float] = {}
    for func, (_cc, _nc, tottime, _ct, _callers) in stats.items():
        for name, part in share(func, frozenset()).items():
            times[name] = times.get(name, 0.0) + tottime * part
    return times


# -- measurement ------------------------------------------------------------------
def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from repro.perf import PERF

    runner = Runner(name, seed)
    warm_start = time.perf_counter()
    r = 0
    while time.perf_counter() - warm_start < WARMUP_SECONDS:
        runner.run_round(r)
        r += 1
    profile = cProfile.Profile() if trace else None
    walls: list[float] = []
    setups: list[float] = []
    attempted = failed = 0
    errors: list[str] = []
    PERF.reset()
    PERF.enabled = trace
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    r = 0
    # Untraced runs end on a whole cycle, so every set has the same chances
    # at a fast repetition; traced figures are per-round averages.
    while (r % INPUT_SETS and not trace) or time.perf_counter() - start < seconds:
        if r % INPUT_SETS == 0:
            # Each cycle runs on the next CPU, so every input set is
            # repeated on each of them: one CPU's slow phase then cannot
            # hold the fastest repetitions of a whole run.
            os.sched_setaffinity(0, {cpus[(r // INPUT_SETS) % len(cpus)]})
            if not trace:
                # One set-up per cycle spreads them over the run like rounds.
                setups.append(time_setup(name, seed))
        try:
            wall, cells = runner.run_round(r, profile)
        except Exception as exc:  # one broken round must not hide the others
            attempted += len(runner.configs(r))
            failed += len(runner.configs(r))
            errors.append(f"round {r}: {type(exc).__name__}: {exc}")
            if len(errors) >= 3:
                break
        else:
            walls.append((r % INPUT_SETS, wall))
            attempted += cells
        r += 1
    os.sched_setaffinity(0, cpus)
    PERF.enabled = False
    counters = dict(PERF.counters)
    try:
        attempted += runner.check_reference() if runner.first else 0
    except Exception as exc:
        failed += 1
        errors.append(f"reference: {type(exc).__name__}: {exc}")
    for line in errors:
        print(f"perfbench: {line}", file=sys.stderr)

    metrics: dict[str, dict] = {}
    rounds = max(len(walls), 1)
    if trace:
        metrics["traced_round_ms"] = {
            "value": statistics.median(w for _, w in walls) * 1e3 if walls else 0.0,
            "unit": "ms"}
        times = layer_self_times(profile)
        for layer in TIMED_LAYERS:
            metrics[f"{layer}_self_ms"] = {
                "value": times.get(layer, 0.0) * 1e3 / rounds, "unit": "ms"}
        for metric, counter in LAYER_COUNTERS.items():
            metrics[metric] = {
                "value": counters.get(counter, 0) / rounds, "unit": "count"}
    else:
        best: dict[int, float] = {}
        for input_set, wall in walls:
            best[input_set] = min(wall, best.get(input_set, wall))
        metrics["round_ms"] = {
            "value": statistics.fmean(best.values()) * 1e3 if best else 0.0,
            "unit": "ms"}
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB"}
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    return {
        "correct": not errors and failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }


def time_setup(name: str, seed: int) -> float:
    """Wall time of a fresh interpreter importing the program and building
    the first round's job lists."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", name, "--seed", str(seed)]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def setup_only(name: str, seed: int) -> None:
    from repro.experiments.runner import build_workload

    for config, _policy, _model in Runner(name, seed).configs(0):
        build_workload(config)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    import_program()
    if args.setup_only:
        setup_only(args.workload, args.seed)
        return 0
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
