"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``figure``      regenerate one of the paper's figures (1–8)
``table``       regenerate one of the paper's tables (1–6)
``run``         simulate one policy on one configuration
``grid``        run a Table VI grid through the resumable run store
``faults``      availability-vs-risk sweeps: per-node MTBF, or correlated
                fault domains (``--sweep correlated``)
``market``      population-scale provider market (§3): one run or a risk sweep
``farm``        work-stealing grid farm: worker, serve, sync, status
``store``       run-store maintenance: stats, compact, merge
``trace``       show statistics of an SWF trace file (or the synthetic one)
``frontier``    Pareto frontier and risk-adjusted scores of a model's policies
``tornado``     per-knob sensitivity of one policy
``recommend``   a priori policy recommendation for a model/set
``report``      run the full reproduction into a directory
``list``        list policies, scenarios, objectives

``grid --farm <dir>`` submits the grid to a farm's spool instead of
executing locally; ``repro farm serve``/``repro farm worker`` drive it.

Everything prints plain text (the same renderings the benchmark exhibits
use) and exits non-zero on bad arguments, so the CLI is scriptable.

Each handler imports what its command uses; the module itself imports
only what building the parser needs, so ``--help`` and a single ``run``
never load the risk analysis, the run store or the farm (see
``docs/architecture.md``, "Import layering").
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Optional, Sequence

from repro.faults.config import CORRELATED_FAULTS

if TYPE_CHECKING:
    from repro.experiments.runstore import RunStore
    from repro.experiments.scenarios import ExperimentConfig


class UsageError(Exception):
    """A refused command line: :func:`main` prints ``error: <message>`` and exits 2."""


#: Every fault flag, once: FaultConfig field → (option, type or choices, metavar, help).
#: A flag's ``dest`` is ``fault_<field>``, the virtual field that
#: :meth:`~repro.experiments.scenarios.ExperimentConfig.with_values` takes, so both config
#: builders pass the parsed values on by name.  ``run`` and ``grid`` take every row, unset
#: by default; ``repro faults`` takes :data:`SWEEP_FIELDS` and :data:`CORRELATED_FIELDS`.
FAULT_FLAGS = {
    "mtbf": ("--mtbf", float, "SECONDS",
             "enable node failures with this per-node mean time between failures"),
    "mttr": ("--mttr", float, "SECONDS", "mean time to repair a failed node"),
    "recovery": ("--recovery", ("resubmit", "checkpoint"), None, "recovery of "
                 "failure-killed jobs: rerun from scratch, or resume from periodic checkpoints"),
    "model": ("--fault-model", ("exponential", "weibull"), None, "time-to-failure distribution"),
    "domain_size": ("--domain-size", int, "NODES",
                    "nodes per rack (fault domain); default 8 when --domain-mtbf is set"),
    "domain_mtbf": ("--domain-mtbf", float, "SECONDS", "mean time between whole-rack outages"),
    "domain_mttr": ("--domain-mttr", float, "SECONDS", "mean rack outage length"),
    "cascade_prob": ("--cascade-prob", float, "P",
                     "probability a failure propagates to each peer in its fault domain"),
    "cascade_delay": ("--cascade-delay", float, "SECONDS",
                      "deterministic delay before a cascade hop lands"),
    "elastic_interval": ("--elastic-interval", float, "SECONDS", "mean time between "
                         "stochastic capacity events (node add/decommission)"),
    "elastic_max_extra": ("--elastic-max-extra", int, "NODES", "ceiling on elastically "
                          "commissioned extra nodes (default 4 with --elastic-interval)"),
}
#: the per-node repair and recovery rows, which shape every fault run.
SWEEP_FIELDS = ("mttr", "recovery", "model")
#: the rack machine of ``repro faults --sweep correlated``; its flags
#: default to :data:`~repro.faults.config.CORRELATED_FAULTS`.
CORRELATED_FIELDS = ("domain_size", "domain_mtbf", "domain_mttr", "cascade_delay")


def _add_fault_flag(group, field: str, default=None, prefix: str = "") -> None:
    option, kind, metavar, help = FAULT_FLAGS[field]
    choices = kind if isinstance(kind, tuple) else None
    group.add_argument(option, dest=f"fault_{field}", default=default,
                       type=None if choices else kind, choices=choices,
                       metavar=metavar, help=prefix + help)


def _fault_values(args, fields) -> dict:
    """``{"fault_<field>": value}`` for each of ``fields`` the command sets."""
    values = {f"fault_{field}": getattr(args, f"fault_{field}", None) for field in fields}
    return {dest: value for dest, value in values.items() if value is not None}


def _with_faults(config: ExperimentConfig, faults: dict) -> ExperimentConfig:
    """``config`` with fault injection on and the ``fault_*`` values applied;
    values :class:`~repro.faults.config.FaultConfig` refuses are a usage error."""
    try:
        return config.with_values(fault_enabled=True, **faults)
    except ValueError as exc:
        raise UsageError(f"invalid fault flags: {exc}") from None


def _config_from_args(args) -> ExperimentConfig:
    from repro.experiments.scenarios import ExperimentConfig

    config = ExperimentConfig(
        n_jobs=args.jobs, total_procs=args.procs, seed=args.seed
    ).for_set(args.set)
    faults = _fault_values(args, FAULT_FLAGS)
    # The other fault knobs only shape failures that --mtbf or --domain-mtbf turn on.
    if "fault_mtbf" not in faults and "fault_domain_mtbf" not in faults:
        return config
    if "fault_domain_mtbf" in faults:
        faults.setdefault("fault_domain_size", 8)
    if faults.get("fault_elastic_interval"):
        faults["fault_elastic_model"] = "stochastic"
        faults.setdefault("fault_elastic_max_extra", 4)
    return _with_faults(config, faults)


def _check_policy(name: str) -> str:
    from repro.policies import POLICIES

    if name not in POLICIES:
        raise UsageError(f"unknown policy {name!r} (see `list`)")
    return name


def _policies(args) -> Sequence[str]:
    """``--policies``, checked, or every policy of ``--model``."""
    from repro.policies import BID_POLICIES, COMMODITY_POLICIES, POLICIES

    policies = getattr(args, "policies", None) or (
        COMMODITY_POLICIES if args.model == "commodity" else BID_POLICIES
    )
    unknown = [p for p in policies if p not in POLICIES]
    if unknown:
        raise UsageError(f"unknown policies {unknown} (see `list`)")
    return policies


def _add_scale_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=200, help="jobs per simulation")
    parser.add_argument("--procs", type=int, default=128, help="cluster size")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--set", choices=("A", "B"), default="A",
                        help="estimate set: A=accurate, B=trace estimates")


def _add_fault_options(parser: argparse.ArgumentParser) -> None:
    node = parser.add_argument_group("fault injection")
    domains = parser.add_argument_group(
        "fault domains & elasticity",
        "group nodes into racks that fail together; --domain-mtbf enables "
        "fault injection on its own (--mtbf optional)",
    )
    for field in FAULT_FLAGS:
        _add_fault_flag(node if field in ("mtbf", *SWEEP_FIELDS) else domains, field)


def cmd_figure(args) -> int:
    from repro.experiments import figures as figures_mod
    from repro.experiments.report import format_table, summarize_figure, summarize_plot

    base = _config_from_args(args)
    number = args.number
    if number == 1:
        print(summarize_plot(figures_mod.figure_1()))
        return 0
    if number == 2:
        data = figures_mod.figure_2()
        rows = [
            {"time_s": t, "utility": u}
            for t, u in list(zip(data["time"], data["utility"]))[:: max(len(data["time"]) // 15, 1)]
        ]
        print(format_table(rows, title="Fig. 2 — utility vs completion time"))
        return 0
    if number not in (3, 4, 5, 6, 7, 8):
        raise UsageError(f"no figure {number} in the paper")
    # Each grid-backed figure runs its own model's grids.
    panels = getattr(figures_mod, f"figure_{number}")(base)
    print(summarize_figure(panels, include_ascii=args.ascii))
    return 0


def cmd_table(args) -> int:
    from repro.experiments.report import format_table
    from repro.experiments.tables import TABLES

    if args.number not in TABLES:
        raise UsageError(f"no table {args.number} in the paper")
    builder, title = TABLES[args.number]
    print(format_table(builder(), title=title))
    return 0


def cmd_run(args) -> int:
    from repro.economy.models import make_model
    from repro.experiments.report import format_table
    from repro.experiments.runner import build_workload
    from repro.perf import capture as perf_capture
    from repro.policies import make_policy
    from repro.service.provider import CommercialComputingService

    _check_policy(args.policy)
    config = _config_from_args(args)
    title = f"{args.policy} on {args.model} model (Set {args.set}, {config.n_jobs} jobs)"

    def objective_rows(objs) -> list:
        return [{"metric": "wait (s)", "value": objs.wait},
                {"metric": "SLA (%)", "value": objs.sla},
                {"metric": "reliability (%)", "value": objs.reliability},
                {"metric": "profitability (%)", "value": objs.profitability}]

    store = None
    if args.cache_dir:
        from repro.experiments.runstore import RunStore

        store = RunStore(args.cache_dir)
        cached = store.get(config, args.policy, args.model)
        if cached is not None:
            print(format_table(objective_rows(cached), title=f"{title} — from run store"))
            print(f"run store hit ({store.cache_dir}); rerun without "
                  "--cache-dir to re-simulate per-job outcomes")
            return 0
    jobs = build_workload(config)
    service = CommercialComputingService(
        make_policy(args.policy),
        make_model(args.model),
        total_procs=config.total_procs,
        fault_config=config.faults if config.faults.enabled else None,
        fault_seed=config.seed,
    )
    with perf_capture() as perf:
        result = service.run(jobs)
        elapsed = perf.elapsed
        events = perf.counters.get("sim.events_executed", 0)
    objs = result.objectives()
    print(format_table([
        {"metric": "jobs submitted", "value": len(result.outcomes)},
        {"metric": "jobs accepted", "value": sum(o.accepted for o in result.outcomes)},
        {"metric": "SLAs fulfilled", "value": sum(o.sla_fulfilled for o in result.outcomes)},
        *objective_rows(objs),
        {"metric": "total utility", "value": result.ledger.total_utility},
        {"metric": "penalties", "value": result.ledger.total_penalties},
    ], title=title))
    if result.fault_stats is not None:
        fs = result.fault_stats
        print(
            f"faults: {fs['failures']} failures, {fs['jobs_killed']} jobs killed, "
            f"{fs['failed_slas']} SLAs failed, observed availability "
            f"{fs['observed_availability']:.4f} "
            f"(recovery={config.faults.recovery})"
        )
        if (
            fs["domain_outages"] or fs["cascade_propagations"]
            or fs["nodes_commissioned"] or fs["nodes_decommissioned"]
        ):
            print(
                f"domains: {fs['domain_outages']} domain outages, "
                f"{fs['cascade_propagations']} cascade propagations, "
                f"+{fs['nodes_commissioned']}/-{fs['nodes_decommissioned']} "
                "elastic nodes"
            )
    elapsed = max(elapsed, 1e-12)
    print(
        f"throughput: {len(jobs) / elapsed:,.0f} jobs/s, "
        f"{events / elapsed:,.0f} events/s ({elapsed:.3f}s wall)"
    )
    if store is not None:
        store.put(config, args.policy, args.model, objs)
        print(f"run checkpointed to {store.cache_dir}")
    return 0


def _parse_shard(text: Optional[str]) -> Optional[tuple]:
    """``"i/n"`` (1-based) → 0-based ``(i-1, n)``; None passes through."""
    if text is None:
        return None
    try:
        index_text, count_text = text.split("/", 1)
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise UsageError(f"shard must look like i/n (e.g. 2/4), got {text!r}") from None
    if not 1 <= index <= count:
        raise UsageError(f"shard index must be in 1..{count}, got {index}")
    return index - 1, count


def _print_failures(store: RunStore, failed: Sequence[str]) -> None:
    """Name every run that exhausted its retries, with its journaled cause."""
    failures = store.failures()
    print(
        f"error: {len(failed)} runs failed after retries were exhausted:",
        file=sys.stderr,
    )
    for digest in failed:
        record = failures.get(digest)
        detail = f" [{record.kind}] {record.message}" if record else ""
        print(f"  {digest[:12]} ({digest}){detail}", file=sys.stderr)


def cmd_grid(args) -> int:
    from repro.core.objectives import OBJECTIVES
    from repro.core.ranking import rank_policies
    from repro.experiments.pipeline import (
        ExecutionPolicy,
        assemble_grid,
        execute_plan,
        grid_plan,
    )
    from repro.experiments.report import format_table
    from repro.experiments.runstore import RunStore
    from repro.experiments.scenarios import SCENARIOS, scenario_by_name
    from repro.perf import capture as perf_capture

    policies = _policies(args)
    shard = _parse_shard(args.shard)
    if args.resume and not args.cache_dir:
        raise UsageError("--resume requires --cache-dir")
    try:
        scenarios = [scenario_by_name(name) for name in args.scenario or ()]
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    base = _config_from_args(args)
    # The supervision knobs, as ExecutionPolicy and plan_from_args name them.
    supervision = {name: getattr(args, name) for name in (
        "run_timeout", "max_retries", "backoff_base", "max_sim_events", "max_sim_time",
        "on_error")}
    if args.farm:
        from repro.farm import Farm, plan_from_args

        plan = plan_from_args(policies, args.model, base, args.set,
                              scenarios=tuple(args.scenario or ()), **supervision)
        farm = Farm(args.farm)
        path = farm.submit(plan)
        units = len(plan.unique_units())
        print(f"submitted job {plan.job_id} ({units} units) to {path}")
        print(f"result will land at {farm.result_path(plan.job_id)} — "
              f"drive it with `repro farm serve --farm {args.farm}` and "
              f"`repro farm worker --farm {args.farm}`")
        return 0
    scenarios = scenarios or SCENARIOS
    store = RunStore(args.cache_dir)
    plan = grid_plan(policies, args.model, base, args.set, scenarios)
    with perf_capture() as perf:
        execution = execute_plan(
            plan, store, n_workers=args.workers, shard=shard,
            execution=ExecutionPolicy(**supervision),
        )
        counters = dict(perf.counters)
    rate = execution.executed / max(execution.wall_s, 1e-12)
    print(
        f"plan: {execution.accesses} accesses → {execution.hits} store hits, "
        f"{execution.misses} unique misses; simulated {execution.executed} "
        f"({execution.deferred} deferred to other shards) in "
        f"{execution.wall_s:.2f}s ({rate:,.2f} sims/s)"
    )
    if execution.retries:
        print(f"resilience: {execution.retries} retries "
              f"({int(counters.get('pipeline.pool_rebuilds', 0))} pool rebuilds)")
    if args.cache_dir:
        print(
            f"run store: {store.cache_dir} — "
            f"{int(counters.get('runstore.hits', 0))} hits / "
            f"{int(counters.get('runstore.misses', 0))} misses, "
            f"{store.stats()['disk_runs']} runs on disk"
        )
    if execution.failed:
        _print_failures(store, execution.failed)
        if args.on_error == "abort":
            print(
                "rerun with --on-error degrade to assemble around the gaps "
                "(failures are journaled in the run store)", file=sys.stderr,
            )
            return 1
    if execution.deferred:
        print(
            "partial shard complete; run the remaining shards against the "
            "same --cache-dir, then rerun without --shard to assemble"
        )
        return 0
    on_missing = "degrade" if args.on_error == "degrade" else "raise"
    grid = assemble_grid(
        store, policies, args.model, base, args.set, scenarios,
        on_missing=on_missing,
    )
    if grid.degraded:
        print(f"grid degraded ({args.model}, Set {args.set}): "
              f"{len(grid.gaps)} gap cells — ranking skipped")
        print(format_table(grid.gaps_report(), title="gaps"))
    else:
        ranking = " > ".join(
            r.policy for r in rank_policies(grid.integrated_plot(OBJECTIVES),
                                            by="performance")
        )
        print(f"grid complete ({args.model}, Set {args.set}, "
              f"{len(list(scenarios))} scenarios): {ranking}")
    if args.output:
        path = grid.save(args.output)
        print(f"grid analysis written to {path}")
    return 0


def cmd_faults(args) -> int:
    from repro.experiments.faultsweep import (
        assemble_fault_sweep,
        cascade_scenario,
        mtbf_scenario,
    )
    from repro.experiments.pipeline import execute_plan, grid_plan
    from repro.experiments.runstore import RunStore
    from repro.experiments.scenarios import ExperimentConfig

    policies = _policies(args)
    faults = _fault_values(args, SWEEP_FIELDS)
    if args.sweep == "correlated":
        make_scenario = cascade_scenario
        faults.update(_fault_values(args, CORRELATED_FIELDS), fault_mtbf=CORRELATED_FAULTS.mtbf)
    else:
        make_scenario = mtbf_scenario
    scenario = make_scenario(args.levels) if args.levels else make_scenario()
    fault_base = _with_faults(ExperimentConfig(
        n_jobs=args.jobs, total_procs=args.procs, seed=args.seed
    ), faults)
    store = RunStore(args.cache_dir)
    execution = execute_plan(
        grid_plan(policies, args.model, fault_base, args.set, [scenario]), store
    )
    if execution.failed:
        _print_failures(store, execution.failed)
        return 1
    result = assemble_fault_sweep(
        store, policies, args.model, fault_base, scenario, args.set
    )
    print(result.table())
    if args.cache_dir:
        print(f"\nrun store: {store.cache_dir} "
              f"({store.stats()['disk_runs']} runs on disk)")
    return 0


def _market_level(text: str):
    """One ``--levels`` value: a float MTBF in seconds, or off/none."""
    if text.lower() in ("off", "none"):
        return None
    return float(text)


def cmd_market(args) -> int:
    from repro.experiments.marketsweep import (
        MarketConfig,
        admission_market_scenario,
        correlated_market_config,
        correlated_market_scenario,
        mtbf_market_scenario,
        run_market_sweep,
    )
    from repro.experiments.runstore import RunStore
    from repro.market import Marketplace, ProviderSpec, SyntheticSpec, market_job_stream

    if args.providers < 2:
        raise UsageError("a market needs at least 2 providers")
    # Risky-first convention: providers[0] is the greedy (over-admitting,
    # possibly failing) provider the sweeps perturb; the rest admit by
    # deadline feasibility.
    specs = [
        SyntheticSpec("risky", capacity=args.capacity, admission="greedy",
                      mtbf=args.mtbf, mttr=args.mttr)
    ]
    for i in range(1, args.providers):
        name = "steady" if i == 1 else f"steady{i}"
        specs.append(SyntheticSpec(name, capacity=args.capacity, admission="deadline"))
    population = dict(n_users=args.users, seed=args.seed, share_window=args.share_window)

    if args.sweep:
        if args.policy:
            raise UsageError("--policy applies to single runs only "
                             "(sweeps are synthetic-provider markets)")
        shard = _parse_shard(args.shard)
        if args.sweep == "correlated":
            # The duel needs its own field (risky + grouped peer + steady);
            # --providers/--capacity shape the other sweeps only.
            base = correlated_market_config(n_jobs=args.jobs, **population)
            scenario = correlated_market_scenario()
        else:
            base = MarketConfig(providers=tuple(specs), n_jobs=args.jobs, **population)
            if args.sweep == "mtbf":
                scenario = (
                    mtbf_market_scenario(tuple(args.levels))
                    if args.levels else mtbf_market_scenario()
                )
            else:
                scenario = admission_market_scenario()
        store = RunStore(args.cache_dir)
        result = run_market_sweep(base, scenario=scenario, store=store, shard=shard)
        print(result.table())
        execution = result.execution
        print(f"\nplan: {execution.accesses} accesses, {execution.hits} hits, "
              f"{execution.executed} executed, {execution.deferred} deferred "
              f"({execution.wall_s:.2f}s)")
        if args.cache_dir:
            print(f"run store: {store.cache_dir} "
                  f"({store.stats()['disk_runs']} runs on disk)")
        if execution.failed:
            print(f"error: {len(execution.failed)} market runs failed after "
                  "retries were exhausted (journaled in the run store)",
                  file=sys.stderr)
            return 1
        return 0

    if args.policy:
        specs.append(ProviderSpec("service", _check_policy(args.policy), total_procs=args.procs))
    market = Marketplace(specs, **population)
    market.run(market_job_stream(args.jobs, seed=args.seed))
    print(f"market — users={args.users} jobs={args.jobs} seed={args.seed}")
    print()
    print(f"{'provider':<10} {'policy':<20} {'subm':>6} {'ful':>6} "
          f"{'viol':>6} {'rej':>6} {'final':>7} {'revenue':>12} {'loyal':>7}")
    for row in market.summary_rows():
        print(f"{row['provider']:<10} {row['policy']:<20} "
              f"{row['submitted']:>6} {row['fulfilled']:>6} "
              f"{row['violated']:>6} {row['rejected']:>6} "
              f"{row['final_share']:>7.3f} {row['revenue']:>12.1f} "
              f"{row['loyal_users']:>7}")
    return 0


def cmd_farm_worker(args) -> int:
    from repro.farm import Farm, WorkerAgent

    farm = Farm(args.farm)
    agent = WorkerAgent(
        farm,
        worker_id=args.worker_id,
        lease_duration=args.lease,
        poll_interval=args.poll,
        echo=print,
    )
    print(f"worker {agent.worker_id} on {farm.root} "
          f"(store {agent.store.cache_dir})")
    try:
        executed = agent.run(
            max_units=args.max_units,
            exit_when_done=args.exit_when_done,
            max_idle_s=args.max_idle,
        )
    except KeyboardInterrupt:
        print(f"worker {agent.worker_id} interrupted; "
              "completed units are committed and leases will expire")
        return 130
    print(f"worker {agent.worker_id} exiting after {executed} unit(s)")
    return 0


def cmd_farm_sync(args) -> int:
    from repro.farm import Farm

    farm = Farm(args.farm)
    report = farm.sync()
    store = farm.store()
    print(f"sync {farm.root}: {report.summary()}")
    print(f"farm store: {store.cache_dir} — "
          f"{len(store.disk_digests())} runs on disk")
    return 0


def cmd_farm_serve(args) -> int:
    import subprocess

    from repro.farm import Farm, FarmError, FarmService

    farm = Farm(args.farm)
    service = FarmService(
        farm, poll_interval=args.poll, self_execute=args.self_execute,
        echo=print,
    )
    workers = []
    for _ in range(args.workers):
        workers.append(subprocess.Popen(
            [sys.executable, "-m", "repro", "farm", "worker",
             "--farm", str(farm.root)],
        ))
    if workers:
        print(f"spawned {len(workers)} local worker(s)")
    print(f"serving {farm.root} (poll {args.poll:g}s"
          f"{', self-executing' if args.self_execute else ''})")
    try:
        completed = service.serve(
            max_jobs=args.max_jobs,
            exit_when_idle=args.exit_when_idle,
            timeout=args.timeout,
        )
    except KeyboardInterrupt:
        print("service interrupted; jobs resume on the next serve")
        return 130
    except FarmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for proc in workers:
            proc.terminate()
        for proc in workers:
            proc.wait(timeout=10)
    print(f"served {len(completed)} job(s): {', '.join(completed) or '(none)'}")
    return 0


def cmd_farm_status(args) -> int:
    from repro.experiments.report import format_table
    from repro.farm import Farm

    farm = Farm(args.farm)
    job_ids = farm.job_ids()
    spooled = sorted(p.name for p in farm.spool_dir.glob("*.json"))
    print(f"farm {farm.root}: {len(job_ids)} job(s), "
          f"{len(spooled)} spooled submission(s), "
          f"{len(farm.worker_ids())} worker store(s)")
    rows = []
    for job_id in job_ids:
        progress = farm.progress(job_id)
        rows.append({
            "job": job_id,
            "units": progress.units,
            "done": progress.done,
            "failed": progress.failed,
            "leased": progress.leased,
            "state": ("assembled" if farm.result_path(job_id).exists()
                      else "complete" if progress.complete else "running"),
        })
    if rows:
        print(format_table(rows, title="jobs"))
    return 0


def cmd_store(args) -> int:
    from repro.experiments.report import format_table
    from repro.experiments.runstore import RunStore

    # RunStore creates its directory, so a mistyped path would read as an
    # empty store (or, for merge, quietly start a new one).
    for directory in (args.cache_dir, *getattr(args, "sources", ())):
        if not os.path.isdir(directory):
            raise UsageError(f"no such run store directory: {directory}")
    store = RunStore(args.cache_dir)
    if args.store_command == "stats":
        stats = store.stats()
        stats["index_lines"] = sum(1 for _ in store.index_entries())
        print(format_table(
            [{"statistic": k, "value": v} for k, v in stats.items()],
            title=f"run store — {args.cache_dir}",
        ))
        return 0
    if args.store_command == "compact":
        before, after = store.compact()
        print(f"index compacted: {before} → {after} line(s)")
        return 0
    # merge
    total = None
    for source in args.sources:
        report = store.merge_from(RunStore(source))
        print(f"merged {source}: {report.summary()}")
        total = report if total is None else total + report
    if total is not None and len(args.sources) > 1:
        print(f"total: {total.summary()}")
    return 0


def cmd_trace(args) -> int:
    from repro.experiments.report import format_table
    from repro.workload.swf import parse_swf
    from repro.workload.synthetic import SDSC_SP2, generate_trace, trace_statistics

    if args.file:
        on_error = "skip" if args.lenient else "raise"
        jobs = parse_swf(args.file, last_n=args.last, on_error=on_error)
        source = args.file
    else:
        jobs = generate_trace(SDSC_SP2.scaled(args.jobs), rng=args.seed)
        source = f"synthetic SDSC-SP2 ({args.jobs} jobs, seed {args.seed})"
    stats = trace_statistics(jobs)
    rows = [{"statistic": k, "value": v} for k, v in stats.items()]
    print(format_table(rows, title=f"workload statistics — {source}"))
    if args.fit:
        from repro.workload.calibration import calibration_report

        report = calibration_report(jobs, seed=args.seed)
        model = report["model"]
        print("\nfitted TraceModel (synthetic twin generator):")
        print(f"  mean_interarrival={model.mean_interarrival:.1f}s "
              f"(sigma_log {model.interarrival_sigma_log:.2f})")
        print(f"  mean_runtime={model.mean_runtime:.1f}s "
              f"(sigma_log {model.runtime_sigma_log:.2f})")
        print(f"  max_procs={model.max_procs}  proc_exponent_max={model.proc_exponent_max:.2f}  "
              f"power_of_two={model.power_of_two_fraction:.0%}")
        print(f"  overestimate_fraction={model.overestimate_fraction:.0%}")
        errs = ", ".join(f"{k} {v:.1%}" for k, v in report["relative_errors"].items())
        print(f"  twin relative errors: {errs}")
    return 0


def _model_grid(args):
    """The full Table VI grid of every policy of ``--model``."""
    from repro.experiments.runner import run_grid
    from repro.experiments.scenarios import SCENARIOS

    return run_grid(_policies(args), args.model, _config_from_args(args), args.set, SCENARIOS)


def cmd_frontier(args) -> int:
    from repro.core.frontier import frontier_report, plot_points
    from repro.core.objectives import OBJECTIVES
    from repro.experiments.report import format_table

    plot = _model_grid(args).integrated_plot(OBJECTIVES)
    rows = [
        {
            "policy": e.policy,
            "mean_performance": e.performance,
            "mean_volatility": e.volatility,
            "on_frontier": e.on_frontier,
            "risk_adjusted": e.risk_adjusted,
        }
        for e in frontier_report(plot_points(plot, "mean"))
    ]
    print(format_table(
        rows, title=f"efficient frontier — {args.model} model, Set {args.set}"
    ))
    return 0


def cmd_tornado(args) -> int:
    from repro.core.objectives import OBJECTIVES
    from repro.experiments.scenarios import SCENARIOS
    from repro.experiments.sensitivity import format_tornado, tornado_analysis

    tornado = tornado_analysis(_check_policy(args.policy), args.model,
                               _config_from_args(args), SCENARIOS)
    for objective in OBJECTIVES:
        print(format_tornado(
            tornado[objective],
            title=f"{args.policy} — {objective.value} ({args.model}, Set {args.set})",
        ))
        print()
    return 0


def cmd_recommend(args) -> int:
    from repro.core.apriori import recommend_policy, risk_register
    from repro.experiments.report import format_table

    grid = _model_grid(args)
    rec = recommend_policy(grid.separate, volatility_tolerance=args.tolerance)
    print(f"recommended policy: {rec.policy}")
    print(f"  {rec.rationale}")
    if rec.alternatives:
        print(f"  alternatives: {', '.join(rec.alternatives)}")
    if args.register:
        rows = [e.as_row() for e in risk_register(grid.separate)]
        print()
        print(format_table(rows, title="risk register (moderate and above)"))
    return 0


def cmd_report(args) -> int:
    from repro.experiments.full_report import generate_report
    from repro.experiments.scenarios import ExperimentConfig

    base = ExperimentConfig(n_jobs=args.jobs, total_procs=args.procs, seed=args.seed)
    index = generate_report(
        args.output, base=base, n_workers=args.workers, cache_dir=args.cache_dir
    )
    print(f"report written to {index['output_dir']} "
          f"({index['simulations']} simulations, {len(index['paths'])} artefacts)")
    for key, rec in index["recommendations"].items():
        print(f"  {key}: {rec.policy}")
    return 0


def cmd_list(args) -> int:
    from repro.core.objectives import OBJECTIVES
    from repro.experiments.scenarios import SCENARIOS
    from repro.policies import BID_POLICIES, COMMODITY_POLICIES, POLICIES

    print("policies:")
    for name in POLICIES:
        markets = []
        if name in COMMODITY_POLICIES:
            markets.append("commodity")
        if name in BID_POLICIES:
            markets.append("bid")
        tag = ", ".join(markets) if markets else "ablation baseline"
        print(f"  {name:12s} ({tag})")
    print("scenarios:")
    for scenario in SCENARIOS:
        values = ", ".join(f"{v:g}" for v in scenario.values)
        print(f"  {scenario.name:20s} {values}")
    print("objectives:")
    for obj in OBJECTIVES:
        print(f"  {obj.value}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Integrated risk analysis for a commercial computing service "
        "(Yeo & Buyya, IPDPS 2007) — reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("figure", help="regenerate a paper figure")
    p.add_argument("number", type=int)
    p.add_argument("--ascii", action="store_true", help="include ASCII scatter plots")
    _add_scale_options(p)
    p.set_defaults(fn=cmd_figure)

    p = sub.add_parser("table", help="regenerate a paper table")
    p.add_argument("number", type=int)
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("run", help="simulate one policy")
    p.add_argument("policy")
    p.add_argument("--model", choices=("commodity", "bid"), default="bid")
    p.add_argument("--cache-dir", default=None,
                   help="persistent run store: reuse a cached result and "
                        "checkpoint new ones")
    _add_scale_options(p)
    _add_fault_options(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser(
        "grid",
        help="run a Table VI grid through the resumable, shardable run store",
    )
    p.add_argument("--model", choices=("commodity", "bid"), default="bid")
    p.add_argument("--policies", nargs="+", default=None,
                   help="policy subset (default: all policies of the model)")
    p.add_argument("--scenario", nargs="+", default=None,
                   metavar="NAME", help="scenario subset by name (default: all 12)")
    p.add_argument("--cache-dir", default=None,
                   help="content-addressed run store directory (enables "
                        "resume and cross-process sharing)")
    p.add_argument("--resume", action="store_true",
                   help="resume an interrupted grid from --cache-dir "
                        "(reuse is automatic; this flag asserts the intent "
                        "and fails fast without a cache dir)")
    p.add_argument("--shard", default=None, metavar="i/n",
                   help="simulate only the i-th of n shards of the missing "
                        "runs (1-based); machines sharing a cache dir "
                        "split the grid")
    p.add_argument("--workers", type=int, default=1, help="process pool size")
    p.add_argument("--farm", default=None, metavar="DIR",
                   help="submit the grid to this farm directory's spool "
                        "instead of executing locally (see `repro farm`)")
    p.add_argument("--output", default=None,
                   help="write the assembled grid analysis JSON here")
    group = p.add_argument_group("resilience")
    group.add_argument("--run-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="wall-clock budget per simulation; a run over "
                            "budget is retried, then journaled as failed")
    group.add_argument("--max-retries", type=int, default=2,
                       help="retries per run after its first failure "
                            "(exponential backoff with jitter)")
    group.add_argument("--retry-backoff", dest="backoff_base", type=float, default=0.5,
                       metavar="SECONDS", help="base delay of the "
                       "exponential retry backoff")
    group.add_argument("--max-sim-events", type=int, default=None,
                       help="simulation watchdog: abort a run after this "
                            "many events (never changes the run digest)")
    group.add_argument("--max-sim-time", type=float, default=None,
                       metavar="SECONDS",
                       help="simulation watchdog: abort a run past this "
                            "simulated time (never changes the run digest)")
    group.add_argument("--on-error", choices=("abort", "degrade"),
                       default="abort",
                       help="after retries are exhausted: abort (exit "
                            "non-zero naming failed digests) or degrade "
                            "(assemble the grid around gap cells)")
    _add_scale_options(p)
    _add_fault_options(p)
    p.set_defaults(fn=cmd_grid)

    p = sub.add_parser(
        "faults",
        help="availability-vs-risk sweeps under node failures: per-node "
             "MTBF (default) or correlated fault domains",
    )
    p.add_argument("--model", choices=("commodity", "bid"), default="bid")
    p.add_argument("--policies", nargs="+", default=None,
                   help="policy subset (default: all policies of the model)")
    p.add_argument("--sweep", choices=("mtbf", "correlated"), default="mtbf",
                   help="mtbf: sweep the per-node MTBF; correlated: sweep "
                        "the cascade probability over a rack-structured "
                        "machine")
    p.add_argument("--levels", nargs="+", type=float, default=None,
                   metavar="VALUE", help="sweep levels: MTBF seconds for "
                   "--sweep mtbf (default 6h…8d), cascade probabilities "
                   "for --sweep correlated (default 0, .1, .25, .5, 1)")
    for field in SWEEP_FIELDS:
        _add_fault_flag(p, field)
    for field in CORRELATED_FIELDS:
        _add_fault_flag(p, field, default=getattr(CORRELATED_FAULTS, field),
                        prefix="[--sweep correlated] ")
    p.add_argument("--cache-dir", default=None,
                   help="content-addressed run store directory")
    _add_scale_options(p)
    p.set_defaults(fn=cmd_faults)

    p = sub.add_parser(
        "market",
        help="population-scale provider market (§3): one run or a risk sweep",
    )
    p.add_argument("--users", type=int, default=1000, help="market population")
    p.add_argument("--jobs", type=int, default=2000, help="jobs in the stream")
    p.add_argument("--seed", type=int, default=0, help="market seed")
    p.add_argument("--providers", type=int, default=2,
                   help="number of synthetic providers (first one is risky)")
    p.add_argument("--capacity", type=float, default=96.0,
                   help="per-provider fluid capacity (processors)")
    p.add_argument("--policy", default=None, metavar="NAME",
                   help="also field a full service provider running this "
                        "scheduling policy (single runs only)")
    p.add_argument("--procs", type=int, default=128,
                   help="cluster size of the --policy service provider")
    p.add_argument("--mtbf", type=float, default=None, metavar="SECONDS",
                   help="give the risky provider outages with this MTBF")
    p.add_argument("--mttr", type=float, default=3600.0, metavar="SECONDS",
                   help="mean outage length of the risky provider")
    p.add_argument("--share-window", type=float, default=50_000.0,
                   metavar="SECONDS", help="market-share sampling window")
    p.add_argument("--sweep", choices=("mtbf", "admission", "correlated"),
                   default=None,
                   help="sweep a risk knob of the risky provider instead of "
                        "running once; 'correlated' compares private vs "
                        "shared-grid outages at identical availability")
    p.add_argument("--levels", nargs="+", type=_market_level, default=None,
                   metavar="SECONDS|off", help="MTBF levels for --sweep mtbf "
                   "('off' = failure-free)")
    p.add_argument("--cache-dir", default=None,
                   help="content-addressed run store directory")
    p.add_argument("--shard", default=None, metavar="i/n",
                   help="execute only the i-th of n content-hash buckets "
                        "of the sweep (1-based, as for grid)")
    p.set_defaults(fn=cmd_market)

    p = sub.add_parser(
        "farm",
        help="work-stealing grid farm over a shared directory",
    )
    farm_sub = p.add_subparsers(dest="farm_command", required=True)

    def farm_command(name: str, fn, help: str) -> argparse.ArgumentParser:
        fp = farm_sub.add_parser(name, help=help)
        fp.add_argument("--farm", required=True, metavar="DIR")
        fp.set_defaults(fn=fn)
        return fp

    fp = farm_command("worker", cmd_farm_worker, "claim and execute work units from a farm")
    fp.add_argument("--worker-id", default=None,
                    help="stable worker identity (default: <host>-<pid>)")
    fp.add_argument("--lease", type=float, default=60.0, metavar="SECONDS",
                    help="lease duration; a worker silent this long is "
                         "presumed dead and its unit is stolen")
    fp.add_argument("--poll", type=float, default=0.5, metavar="SECONDS",
                    help="idle poll interval")
    fp.add_argument("--exit-when-done", action="store_true",
                    help="exit once every known job is resolved "
                         "(default: keep polling for new jobs)")
    fp.add_argument("--max-units", type=int, default=None,
                    help="exit after executing this many units")
    fp.add_argument("--max-idle", type=float, default=None, metavar="SECONDS",
                    help="exit after this long with nothing claimable")

    farm_command("sync", cmd_farm_sync, "merge every worker store into the farm store")
    fp = farm_command("serve", cmd_farm_serve,
                      "long-running service: watch the spool, drive jobs")
    fp.add_argument("--poll", type=float, default=1.0, metavar="SECONDS")
    fp.add_argument("--max-jobs", type=int, default=None,
                    help="exit after completing this many jobs")
    fp.add_argument("--exit-when-idle", action="store_true",
                    help="exit when no submissions or incomplete jobs remain")
    fp.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                    help="abort (non-zero) if jobs are still incomplete "
                         "after this long")
    fp.add_argument("--self-execute", action="store_true",
                    help="also execute claimable units in-process "
                         "(a one-command single-box farm)")
    fp.add_argument("--workers", type=int, default=0, metavar="N",
                    help="spawn N local worker subprocesses for the "
                         "service's lifetime")

    farm_command("status", cmd_farm_status, "show jobs and their progress")

    p = sub.add_parser("store", help="run-store maintenance")
    p.set_defaults(fn=cmd_store)
    store_sub = p.add_subparsers(dest="store_command", required=True)

    sp = store_sub.add_parser("stats", help="summarise a run store directory")
    sp.add_argument("cache_dir", metavar="DIR")

    sp = store_sub.add_parser(
        "compact",
        help="rewrite index.jsonl to one line per live run (atomic)",
    )
    sp.add_argument("cache_dir", metavar="DIR")

    sp = store_sub.add_parser(
        "merge",
        help="union source stores into a destination store "
             "(dedupe identical digests, quarantine conflicts)",
    )
    sp.add_argument("cache_dir", metavar="DEST")
    sp.add_argument("sources", nargs="+", metavar="SRC")

    p = sub.add_parser("trace", help="workload statistics (SWF or synthetic)")
    p.add_argument("--file", help="SWF trace file")
    p.add_argument("--last", type=int, default=None, help="keep only the last N jobs")
    p.add_argument("--jobs", type=int, default=5000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fit", action="store_true",
                   help="fit a synthetic TraceModel to the workload")
    p.add_argument("--lenient", action="store_true",
                   help="skip malformed SWF lines (with a counted warning) "
                        "instead of aborting on the first one")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("frontier", help="Pareto frontier + risk-adjusted scores")
    p.add_argument("--model", choices=("commodity", "bid"), default="bid")
    _add_scale_options(p)
    p.set_defaults(fn=cmd_frontier)

    p = sub.add_parser("tornado", help="per-knob sensitivity of one policy")
    p.add_argument("policy")
    p.add_argument("--model", choices=("commodity", "bid"), default="bid")
    _add_scale_options(p)
    p.set_defaults(fn=cmd_tornado)

    p = sub.add_parser("recommend", help="a priori policy recommendation")
    p.add_argument("--model", choices=("commodity", "bid"), default="bid")
    p.add_argument("--tolerance", type=float, default=0.2,
                   help="maximum acceptable integrated volatility")
    p.add_argument("--register", action="store_true", help="print the risk register")
    _add_scale_options(p)
    p.set_defaults(fn=cmd_recommend)

    p = sub.add_parser("report", help="run the full reproduction into a directory")
    p.add_argument("output", help="report directory to create")
    p.add_argument("--jobs", type=int, default=200)
    p.add_argument("--procs", type=int, default=128)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1, help="process pool size")
    p.add_argument("--cache-dir", default=None,
                   help="persistent run store: a killed report resumes from "
                        "its last checkpointed simulation")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("list", help="list policies, scenarios, objectives")
    p.set_defaults(fn=cmd_list)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
