"""Unit tests for the one-command reproduction driver."""

import json

import pytest

from repro.experiments.full_report import generate_report
from repro.experiments.scenarios import ExperimentConfig, scenario_by_name

TINY = ExperimentConfig(n_jobs=20, total_procs=32)
SCEN = [scenario_by_name("job mix")]


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    out = tmp_path_factory.mktemp("report")
    index = generate_report(out, base=TINY, scenarios=SCEN)
    return out, index


def test_report_writes_all_tables(report):
    out, _ = report
    for n in ("i", "ii", "iii", "iv", "v", "vi"):
        assert (out / "tables" / f"table_{n}.txt").exists()


def test_report_writes_all_figures(report):
    out, _ = report
    for fig in ("fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8"):
        assert (out / "figures" / f"{fig}.txt").exists()
    assert (out / "figures" / "svg" / "fig8b.svg").exists()
    assert (out / "figures" / "gnuplot" / "fig5a.gp").exists()
    assert (out / "figures" / "gnuplot" / "fig5a.dat").exists()


def test_report_grids_are_loadable(report):
    out, _ = report
    doc = json.loads((out / "grids" / "grid_bid_setB.json").read_text())
    assert doc["format"] == "repro-grid"
    assert doc["model"] == "bid"
    assert doc["set_name"] == "B"
    assert "LibraRiskD" in doc["policies"]


def test_report_readme_summarises(report):
    out, index = report
    text = (out / "README.md").read_text()
    assert "Four-objective rankings" in text
    assert "commodity / Set A" in text
    assert "A priori recommendations" in text
    assert index["simulations"] > 0


def test_recommendations_per_market(report):
    _, index = report
    assert set(index["recommendations"]) == {
        "commodity/Set A", "commodity/Set B", "bid/Set A", "bid/Set B",
    }
    for rec in index["recommendations"].values():
        assert rec.policy
