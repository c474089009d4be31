"""One-command full reproduction.

:func:`generate_report` runs the complete evaluation — both economic
models × both estimate sets × every Table VI scenario — and writes a
self-describing report directory::

    report/
      README.md                  summary, rankings, a priori recommendations
      tables/table_*.txt         Tables I–VI
      figures/fig*.txt           Figures 1–8 (full text exhibits)
      figures/svg/fig*.svg       vector renderings of the key panels
      figures/gnuplot/fig*.{dat,gp}
      grids/grid_*.json          raw separate-risk grids (re-analysable)

Scale comes from the base configuration; the process pool size from
``n_workers`` (1 = serial).  Everything is deterministic for a given seed.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.core.apriori import recommend_policy
from repro.core.objectives import OBJECTIVES
from repro.core.ranking import rank_policies
from repro.core.svgplot import save_svg
from repro.experiments import figures as figures_mod
from repro.experiments.gnuplot import export_figure, export_plot
from repro.experiments.report import (
    format_table,
    perf_summary,
    summarize_figure,
    summarize_plot,
)
from repro.experiments.runner import GridAnalysis, run_grid
from repro.experiments.runstore import RunStore
from repro.experiments.scenarios import SCENARIOS, ExperimentConfig
from repro.experiments.tables import TABLES
from repro.perf import PERF
from repro.perf import capture as perf_capture
from repro.policies import BID_POLICIES, COMMODITY_POLICIES


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text if text.endswith("\n") else text + "\n")


def generate_report(
    output_dir: Union[str, Path],
    base: Optional[ExperimentConfig] = None,
    n_workers: int = 1,
    scenarios=SCENARIOS,
    volatility_tolerance: float = 0.2,
    cache_dir: Optional[Union[str, Path]] = None,
) -> dict:
    """Run everything and write the report directory.

    With ``cache_dir``, every simulation is checkpointed to a persistent
    run store the moment it completes — a killed report run resumes from
    its last finished simulation instead of starting over, and subsequent
    reports at the same scale are served from the store.

    Returns an index dict: paths written, grid summaries, and the a priori
    recommendation per (model, set).
    """
    base = base if base is not None else ExperimentConfig()
    out = Path(output_dir)
    cache = RunStore(cache_dir)
    index: dict = {"output_dir": str(out), "paths": [], "recommendations": {}}
    if cache_dir is not None:
        index["cache_dir"] = str(cache_dir)

    def record(path: Path) -> None:
        index["paths"].append(str(path.relative_to(out)))

    # -- tables ----------------------------------------------------------------
    for builder, title in TABLES.values():
        path = out / "tables" / f"{builder.__name__}.txt"
        _write(path, format_table(builder(), title=title))
        record(path)

    # -- grids ------------------------------------------------------------------
    # The grid runs execute under the perf registry so the report can state
    # its own throughput (jobs/sec, events/sec) alongside the exhibits.
    grids: dict[tuple[str, str], GridAnalysis] = {}
    with perf_capture():
        for model, policies in (("commodity", COMMODITY_POLICIES), ("bid", BID_POLICIES)):
            for set_name in ("A", "B"):
                grid = run_grid(
                    policies, model, base, set_name, scenarios,
                    cache=cache, n_workers=n_workers,
                )
                grids[(model, set_name)] = grid
                path = out / "grids" / f"grid_{model}_set{set_name}.json"
                path.parent.mkdir(parents=True, exist_ok=True)
                grid.save(path)
                record(path)
                rec = recommend_policy(
                    grid.separate, volatility_tolerance=volatility_tolerance
                )
                index["recommendations"][f"{model}/Set {set_name}"] = rec
        perf_snapshot = PERF.snapshot()
    perf_text = perf_summary(perf_snapshot, title="experiment throughput")
    if perf_text:
        path = out / "perf.txt"
        _write(path, perf_text)
        record(path)
    index["perf"] = perf_snapshot

    # -- figures ---------------------------------------------------------------
    fig1 = figures_mod.figure_1()
    _write(out / "figures" / "fig1.txt", summarize_plot(fig1))
    record(out / "figures" / "fig1.txt")
    export_plot(fig1, out / "figures" / "gnuplot", "fig1")
    save_svg(fig1, _mk(out / "figures" / "svg") / "fig1.svg")

    figure_builders = {
        "fig3": (figures_mod.figure_3, "commodity"),
        "fig4": (figures_mod.figure_4, "commodity"),
        "fig5": (figures_mod.figure_5, "commodity"),
        "fig6": (figures_mod.figure_6, "bid"),
        "fig7": (figures_mod.figure_7, "bid"),
        "fig8": (figures_mod.figure_8, "bid"),
    }
    for name, (builder, model) in figure_builders.items():
        model_grids = {s: grids[(model, s)] for s in ("A", "B")}
        panels = builder(base, grids=model_grids)
        path = out / "figures" / f"{name}.txt"
        _write(path, summarize_figure(panels))
        record(path)
        export_figure(panels, out / "figures" / "gnuplot", name)
        for key, plot in panels.items():
            save_svg(plot, _mk(out / "figures" / "svg") / f"{name}{key}.svg")

    # -- summary README ----------------------------------------------------------
    lines = [
        "# Reproduction report",
        "",
        f"- configuration: {base.n_jobs} jobs × {base.total_procs} nodes, seed {base.seed}",
        f"- scenarios: {len(list(scenarios))} × 6 values; "
        f"simulations: {cache.misses} unique runs ({cache.hits} cache hits)",
        *(
            [f"- run store: `{cache_dir}` ({cache.stats()['disk_runs']} runs on disk; "
             "rerun with the same --cache-dir to resume or reuse)"]
            if cache_dir is not None
            else []
        ),
        _throughput_line(perf_snapshot),
        "",
        "## Four-objective rankings (integrated risk analysis)",
        "",
    ]
    for (model, set_name), grid in grids.items():
        plot = grid.integrated_plot(OBJECTIVES)
        ranking = " > ".join(
            r.policy for r in rank_policies(plot, by="performance")
        )
        lines.append(f"- **{model} / Set {set_name}**: {ranking}")
    lines += ["", "## A priori recommendations", ""]
    for key, rec in index["recommendations"].items():
        lines.append(f"- **{key}** → `{rec.policy}` — {rec.rationale}")
    lines += ["", "## Contents", ""]
    lines += [f"- `{p}`" for p in sorted(index["paths"])]
    _write(out / "README.md", "\n".join(lines))
    record(out / "README.md")
    index["simulations"] = cache.misses
    return index


def _mk(path: Path) -> Path:
    path.mkdir(parents=True, exist_ok=True)
    return path


def _throughput_line(snapshot: dict) -> str:
    """One README bullet summarising the run's own throughput."""
    counters = snapshot.get("counters", {})
    elapsed = max(float(snapshot.get("elapsed_s", 0.0)), 1e-12)
    jobs = counters.get("runner.jobs_simulated", 0)
    events = counters.get("sim.events_executed", 0)
    if jobs == 0 and counters.get("runner.parallel_dispatches", 0):
        # Worker-side counters could not be merged back (e.g. a spawn-based
        # pool where the registry is disabled in workers); fall back to the
        # parent's dispatch bookkeeping.
        dispatched = counters["runner.parallel_dispatches"]
        return (
            f"- throughput: {dispatched / elapsed:,.2f} simulations/s "
            f"across workers over {elapsed:.1f}s (see perf.txt)"
        )
    return (
        f"- throughput: {jobs / elapsed:,.0f} jobs/s, "
        f"{events / elapsed:,.0f} events/s over {elapsed:.1f}s "
        "(see perf.txt)"
    )
