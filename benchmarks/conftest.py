"""Shared fixtures for the exhibit benchmarks.

Scale control
-------------
The paper's full scale (5000 jobs × 128 nodes × 12 scenarios × 6 values ×
2 sets × 2 models) takes hours in pure Python; the benchmarks default to a
reduced job count that preserves every qualitative shape.  Environment
variables select the scale:

- ``REPRO_BENCH_JOBS``  — jobs per simulation (default 120).
- ``REPRO_BENCH_PROCS`` — cluster size (default 128).
- ``REPRO_FULL_SCALE=1`` — the paper's full 5000-job scale.

Every generated exhibit is also written to ``results/`` at the repo root so
``bench_output.txt`` plus ``results/*.txt`` together reproduce the paper's
evaluation section.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.figures import run_model_grids
from repro.experiments.runstore import RunStore
from repro.experiments.scenarios import ExperimentConfig

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def _bench_config() -> ExperimentConfig:
    if os.environ.get("REPRO_FULL_SCALE") == "1":
        return ExperimentConfig()
    return ExperimentConfig(
        n_jobs=int(os.environ.get("REPRO_BENCH_JOBS", "120")),
        total_procs=int(os.environ.get("REPRO_BENCH_PROCS", "128")),
    )


@pytest.fixture(scope="session")
def base_config() -> ExperimentConfig:
    return _bench_config()


@pytest.fixture(scope="session")
def run_cache() -> RunStore:
    return RunStore()


@pytest.fixture(scope="session")
def commodity_grids(base_config, run_cache):
    """Set A + Set B grids for the commodity market model (figs. 3–5)."""
    return run_model_grids("commodity", base_config, cache=run_cache)


@pytest.fixture(scope="session")
def bid_grids(base_config, run_cache):
    """Set A + Set B grids for the bid-based model (figs. 6–8)."""
    return run_model_grids("bid", base_config, cache=run_cache)


@pytest.fixture(scope="session")
def save_exhibit():
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, text: str) -> Path:
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        return path

    return _save


@pytest.fixture(scope="session")
def save_gnuplot():
    """Export a figure (or single plot) as gnuplot .dat/.gp files under
    results/gnuplot/ — `gnuplot results/gnuplot/fig3a.gp` renders the PNG."""
    from repro.core.riskplot import RiskPlot
    from repro.experiments.gnuplot import export_figure, export_plot

    def _save(panels, prefix: str):
        directory = RESULTS_DIR / "gnuplot"
        if isinstance(panels, RiskPlot):
            export_plot(panels, directory, prefix)
        else:
            export_figure(panels, directory, prefix)

    return _save


def one_shot(benchmark, fn, *args, **kwargs):
    """Run an expensive exhibit generator exactly once under the timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
