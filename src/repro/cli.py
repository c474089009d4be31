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
``recommend``   a priori policy recommendation for a model/set
``list``        list policies, scenarios, objectives

``grid --farm <dir>`` submits the grid to a farm's spool instead of
executing locally; ``repro farm serve``/``repro farm worker`` drive it.

``run`` and ``grid`` accept ``--mtbf`` (plus ``--mttr``, ``--recovery``,
``--fault-model``) to inject node failures into any simulation, and the
fault-domain knobs (``--domain-size``, ``--domain-mtbf``, ``--domain-mttr``,
``--cascade-prob``, ``--cascade-delay``, ``--elastic-interval``,
``--elastic-max-extra``) to correlate those failures into rack-level
outages, cascades, and elastic capacity.

Everything prints plain text (the same renderings the benchmark exhibits
use) and exits non-zero on bad arguments, so the CLI is scriptable.

Each handler imports what its command uses; the module itself imports
only what building the parser needs, so ``--help`` and a single ``run``
never load the risk analysis, the run store or the farm (see
``docs/architecture.md``, "Import layering").
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Optional, Sequence

from repro.faults.config import CORRELATED_FAULTS

if TYPE_CHECKING:
    from repro.experiments.runstore import RunStore
    from repro.experiments.scenarios import ExperimentConfig


def _config_from_args(args) -> ExperimentConfig:
    from repro.experiments.scenarios import ExperimentConfig

    config = ExperimentConfig(
        n_jobs=args.jobs, total_procs=args.procs, seed=args.seed
    ).for_set(args.set)
    fault_values = {}
    if getattr(args, "mtbf", None) is not None:
        fault_values.update(
            fault_model=args.fault_model,
            fault_mtbf=args.mtbf,
            fault_mttr=args.mttr,
        )
    if getattr(args, "domain_mtbf", None) is not None:
        fault_values["fault_domain_mtbf"] = args.domain_mtbf
        if getattr(args, "domain_size", None) is None:
            fault_values["fault_domain_size"] = 8
    if fault_values:
        # Correlated knobs only make sense once failures exist at all, so
        # they ride along with whichever process (--mtbf / --domain-mtbf)
        # enabled fault injection.
        fault_values["fault_recovery"] = args.recovery
        for attr, field in (
            ("domain_size", "fault_domain_size"),
            ("domain_mttr", "fault_domain_mttr"),
            ("cascade_prob", "fault_cascade_prob"),
            ("cascade_delay", "fault_cascade_delay"),
            ("elastic_interval", "fault_elastic_interval"),
            ("elastic_max_extra", "fault_elastic_max_extra"),
        ):
            value = getattr(args, attr, None)
            if value is not None:
                fault_values[field] = value
        if fault_values.get("fault_elastic_interval"):
            fault_values["fault_elastic_model"] = "stochastic"
            fault_values.setdefault("fault_elastic_max_extra", 4)
        config = config.with_values(fault_enabled=True, **fault_values)
    return config


def _add_scale_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=200, help="jobs per simulation")
    parser.add_argument("--procs", type=int, default=128, help="cluster size")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--set", choices=("A", "B"), default="A",
                        help="estimate set: A=accurate, B=trace estimates")


def _add_fault_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("fault injection")
    group.add_argument("--mtbf", type=float, default=None, metavar="SECONDS",
                       help="enable node failures with this per-node mean "
                            "time between failures")
    group.add_argument("--mttr", type=float, default=3600.0, metavar="SECONDS",
                       help="mean time to repair a failed node")
    group.add_argument("--recovery", choices=("resubmit", "checkpoint"),
                       default="resubmit",
                       help="recovery of failure-killed jobs: rerun from "
                            "scratch, or resume from periodic checkpoints")
    group.add_argument("--fault-model", choices=("exponential", "weibull"),
                       default="exponential",
                       help="time-to-failure distribution")
    group = parser.add_argument_group(
        "fault domains & elasticity",
        "group nodes into racks that fail together; --domain-mtbf enables "
        "fault injection on its own (--mtbf optional)",
    )
    group.add_argument("--domain-size", type=int, default=None, metavar="NODES",
                       help="nodes per rack (fault domain); default 8 when "
                            "--domain-mtbf is set")
    group.add_argument("--domain-mtbf", type=float, default=None,
                       metavar="SECONDS",
                       help="mean time between whole-rack outages")
    group.add_argument("--domain-mttr", type=float, default=None,
                       metavar="SECONDS", help="mean rack outage length")
    group.add_argument("--cascade-prob", type=float, default=None, metavar="P",
                       help="probability a failure propagates to each peer "
                            "in its fault domain")
    group.add_argument("--cascade-delay", type=float, default=None,
                       metavar="SECONDS",
                       help="deterministic delay before a cascade hop lands")
    group.add_argument("--elastic-interval", type=float, default=None,
                       metavar="SECONDS",
                       help="mean time between stochastic capacity events "
                            "(node add/decommission)")
    group.add_argument("--elastic-max-extra", type=int, default=None,
                       metavar="NODES",
                       help="ceiling on elastically commissioned extra nodes "
                            "(default 4 with --elastic-interval)")


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
        print(f"error: no figure {number} in the paper", file=sys.stderr)
        return 2
    model = "commodity" if number <= 5 else "bid"
    grids = figures_mod.run_model_grids(model, base)
    builder = getattr(figures_mod, f"figure_{number}")
    panels = builder(base, grids=grids)
    print(summarize_figure(panels, include_ascii=args.ascii))
    return 0


def cmd_table(args) -> int:
    from repro.experiments import tables as tables_mod
    from repro.experiments.report import format_table

    builders = {
        1: (tables_mod.table_i, "Table I — objectives"),
        2: (tables_mod.table_ii, "Table II — sample statistics"),
        3: (tables_mod.table_iii, "Table III — ranking by best performance"),
        4: (tables_mod.table_iv, "Table IV — ranking by best volatility"),
        5: (tables_mod.table_v, "Table V — policies"),
        6: (tables_mod.table_vi, "Table VI — scenarios"),
    }
    if args.number not in builders:
        print(f"error: no table {args.number} in the paper", file=sys.stderr)
        return 2
    builder, title = builders[args.number]
    print(format_table(builder(), title=title))
    return 0


def cmd_run(args) -> int:
    from repro.economy.models import make_model
    from repro.experiments.report import format_table
    from repro.experiments.runner import build_workload
    from repro.perf import capture as perf_capture
    from repro.policies import POLICIES, make_policy
    from repro.service.provider import CommercialComputingService

    if args.policy not in POLICIES:
        print(f"error: unknown policy {args.policy!r} (see `list`)", file=sys.stderr)
        return 2
    config = _config_from_args(args)
    store = None
    if args.cache_dir:
        from repro.experiments.runstore import RunStore

        store = RunStore(args.cache_dir)
        cached = store.get(config, args.policy, args.model)
        if cached is not None:
            store.hits += 1
            print(format_table([
                {"metric": "wait (s)", "value": cached.wait},
                {"metric": "SLA (%)", "value": cached.sla},
                {"metric": "reliability (%)", "value": cached.reliability},
                {"metric": "profitability (%)", "value": cached.profitability},
            ], title=f"{args.policy} on {args.model} model (Set {args.set}, "
                     f"{config.n_jobs} jobs) — from run store"))
            print(f"run store hit ({store.cache_dir}); rerun without "
                  "--cache-dir to re-simulate per-job outcomes")
            return 0
        store.misses += 1
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
        {"metric": "wait (s)", "value": objs.wait},
        {"metric": "SLA (%)", "value": objs.sla},
        {"metric": "reliability (%)", "value": objs.reliability},
        {"metric": "profitability (%)", "value": objs.profitability},
        {"metric": "total utility", "value": result.ledger.total_utility},
        {"metric": "penalties", "value": result.ledger.total_penalties},
    ], title=f"{args.policy} on {args.model} model (Set {args.set}, {config.n_jobs} jobs)"))
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
        raise ValueError(f"shard must look like i/n (e.g. 2/4), got {text!r}")
    if not 1 <= index <= count:
        raise ValueError(f"shard index must be in 1..{count}, got {index}")
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
    from repro.policies import BID_POLICIES, COMMODITY_POLICIES, POLICIES

    policies = args.policies or (
        COMMODITY_POLICIES if args.model == "commodity" else BID_POLICIES
    )
    unknown = [p for p in policies if p not in POLICIES]
    if unknown:
        print(f"error: unknown policies {unknown} (see `list`)", file=sys.stderr)
        return 2
    try:
        shard = _parse_shard(args.shard)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.resume and not args.cache_dir:
        print("error: --resume requires --cache-dir", file=sys.stderr)
        return 2
    if args.farm:
        from repro.farm import Farm, plan_from_args

        # Validate scenario names before shipping them to the service.
        try:
            for name in args.scenario or ():
                scenario_by_name(name)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        plan = plan_from_args(
            policies, args.model, _config_from_args(args), args.set,
            scenarios=tuple(args.scenario or ()),
            run_timeout=args.run_timeout, max_retries=args.max_retries,
            backoff_base=args.retry_backoff,
            max_sim_events=args.max_sim_events, max_sim_time=args.max_sim_time,
            on_error=args.on_error,
        )
        farm = Farm(args.farm)
        path = farm.submit(plan)
        units = len(plan.unique_units())
        print(f"submitted job {plan.job_id} ({units} units) to {path}")
        print(f"result will land at {farm.result_path(plan.job_id)} — "
              f"drive it with `repro farm serve --farm {args.farm}` and "
              f"`repro farm worker --farm {args.farm}`")
        return 0
    scenarios = (
        [scenario_by_name(name) for name in args.scenario]
        if args.scenario else SCENARIOS
    )
    store = RunStore(args.cache_dir)
    base = _config_from_args(args)
    execution_policy = ExecutionPolicy(
        run_timeout=args.run_timeout,
        max_retries=args.max_retries,
        backoff_base=args.retry_backoff,
        max_sim_events=args.max_sim_events,
        max_sim_time=args.max_sim_time,
        on_error=args.on_error,
    )
    plan = grid_plan(policies, args.model, base, args.set, scenarios)
    with perf_capture() as perf:
        execution = execute_plan(
            plan, store, n_workers=args.workers, shard=shard,
            execution=execution_policy,
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
    from repro.policies import BID_POLICIES, COMMODITY_POLICIES, POLICIES

    policies = args.policies or (
        COMMODITY_POLICIES if args.model == "commodity" else BID_POLICIES
    )
    unknown = [p for p in policies if p not in POLICIES]
    if unknown:
        print(f"error: unknown policies {unknown} (see `list`)", file=sys.stderr)
        return 2
    faults = {
        "fault_model": args.fault_model,
        "fault_mttr": args.mttr,
        "fault_recovery": args.recovery,
    }
    if args.sweep == "correlated":
        make_scenario = cascade_scenario
        faults.update(
            fault_mtbf=CORRELATED_FAULTS.mtbf,
            fault_domain_size=args.domain_size,
            fault_domain_mtbf=args.domain_mtbf,
            fault_domain_mttr=args.domain_mttr,
            fault_cascade_delay=args.cascade_delay,
        )
    else:
        make_scenario = mtbf_scenario
    scenario = make_scenario(args.levels) if args.levels else make_scenario()
    fault_base = ExperimentConfig(
        n_jobs=args.jobs, total_procs=args.procs, seed=args.seed
    ).with_values(fault_enabled=True, **faults)
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
    from repro.policies import POLICIES

    if args.providers < 2:
        print("error: a market needs at least 2 providers", file=sys.stderr)
        return 2
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

    if args.sweep:
        if args.policy:
            print("error: --policy applies to single runs only "
                  "(sweeps are synthetic-provider markets)", file=sys.stderr)
            return 2
        try:
            shard = _parse_shard(args.shard)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.sweep == "correlated":
            # The duel needs its own field (risky + grouped peer + steady);
            # --providers/--capacity shape the other sweeps only.
            base = correlated_market_config(
                n_users=args.users,
                n_jobs=args.jobs,
                seed=args.seed,
                share_window=args.share_window,
            )
            scenario = correlated_market_scenario()
        else:
            base = MarketConfig(
                providers=tuple(specs),
                n_users=args.users,
                n_jobs=args.jobs,
                seed=args.seed,
                share_window=args.share_window,
            )
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
        if args.policy not in POLICIES:
            print(f"error: unknown policy {args.policy!r} (see `list`)",
                  file=sys.stderr)
            return 2
        specs.append(ProviderSpec("service", args.policy, total_procs=args.procs))
    market = Marketplace(
        specs,
        n_users=args.users,
        seed=args.seed,
        share_window=args.share_window,
    )
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


def cmd_frontier(args) -> int:
    from repro.core.frontier import frontier_report, plot_points
    from repro.core.objectives import OBJECTIVES
    from repro.experiments.report import format_table
    from repro.experiments.runner import run_grid
    from repro.experiments.scenarios import SCENARIOS
    from repro.policies import BID_POLICIES, COMMODITY_POLICIES

    base = _config_from_args(args)
    policies = COMMODITY_POLICIES if args.model == "commodity" else BID_POLICIES
    grid = run_grid(policies, args.model, base, args.set, SCENARIOS)
    plot = grid.integrated_plot(OBJECTIVES)
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
    from repro.policies import POLICIES

    if args.policy not in POLICIES:
        print(f"error: unknown policy {args.policy!r} (see `list`)", file=sys.stderr)
        return 2
    base = _config_from_args(args)
    tornado = tornado_analysis(args.policy, args.model, base, SCENARIOS)
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
    from repro.experiments.runner import run_grid
    from repro.experiments.scenarios import SCENARIOS
    from repro.policies import BID_POLICIES, COMMODITY_POLICIES

    base = _config_from_args(args)
    policies = COMMODITY_POLICIES if args.model == "commodity" else BID_POLICIES
    grid = run_grid(policies, args.model, base, args.set, SCENARIOS)
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
    group.add_argument("--retry-backoff", type=float, default=0.5,
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
    p.add_argument("--mttr", type=float, default=3600.0, metavar="SECONDS",
                   help="mean time to repair a failed node")
    p.add_argument("--domain-size", type=int,
                   default=CORRELATED_FAULTS.domain_size, metavar="NODES",
                   help="[--sweep correlated] nodes per rack")
    p.add_argument("--domain-mtbf", type=float,
                   default=CORRELATED_FAULTS.domain_mtbf, metavar="SECONDS",
                   help="[--sweep correlated] mean time between rack outages")
    p.add_argument("--domain-mttr", type=float,
                   default=CORRELATED_FAULTS.domain_mttr, metavar="SECONDS",
                   help="[--sweep correlated] mean rack outage length")
    p.add_argument("--cascade-delay", type=float,
                   default=CORRELATED_FAULTS.cascade_delay, metavar="SECONDS",
                   help="[--sweep correlated] delay before a cascade hop")
    p.add_argument("--recovery", choices=("resubmit", "checkpoint"),
                   default="resubmit", help="recovery of failure-killed jobs")
    p.add_argument("--fault-model", choices=("exponential", "weibull"),
                   default="exponential", help="time-to-failure distribution")
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

    fp = farm_sub.add_parser(
        "worker", help="claim and execute work units from a farm",
    )
    fp.add_argument("--farm", required=True, metavar="DIR")
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
    fp.set_defaults(fn=cmd_farm_worker)

    fp = farm_sub.add_parser(
        "sync", help="merge every worker store into the farm store",
    )
    fp.add_argument("--farm", required=True, metavar="DIR")
    fp.set_defaults(fn=cmd_farm_sync)

    fp = farm_sub.add_parser(
        "serve", help="long-running service: watch the spool, drive jobs",
    )
    fp.add_argument("--farm", required=True, metavar="DIR")
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
    fp.set_defaults(fn=cmd_farm_serve)

    fp = farm_sub.add_parser("status", help="show jobs and their progress")
    fp.add_argument("--farm", required=True, metavar="DIR")
    fp.set_defaults(fn=cmd_farm_status)

    p = sub.add_parser("store", help="run-store maintenance")
    store_sub = p.add_subparsers(dest="store_command", required=True)

    sp = store_sub.add_parser("stats", help="summarise a run store directory")
    sp.add_argument("cache_dir", metavar="DIR")
    sp.set_defaults(fn=cmd_store)

    sp = store_sub.add_parser(
        "compact",
        help="rewrite index.jsonl to one line per live run (atomic)",
    )
    sp.add_argument("cache_dir", metavar="DIR")
    sp.set_defaults(fn=cmd_store)

    sp = store_sub.add_parser(
        "merge",
        help="union source stores into a destination store "
             "(dedupe identical digests, quarantine conflicts)",
    )
    sp.add_argument("cache_dir", metavar="DEST")
    sp.add_argument("sources", nargs="+", metavar="SRC")
    sp.set_defaults(fn=cmd_store)

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
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
