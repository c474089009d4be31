"""Unit tests for the grid document: ``GridAnalysis.to_dict`` and ``save``."""

import json

from repro.core.objectives import Objective
from repro.core.separate import SeparateRisk
from repro.experiments.runner import GridAnalysis, run_grid
from repro.experiments.scenarios import ExperimentConfig, scenario_by_name


def small_grid():
    return run_grid(
        ["FCFS-BF", "Libra"], "bid",
        ExperimentConfig(n_jobs=25, total_procs=32), "A",
        [scenario_by_name("job mix")],
    )


def degraded_grid() -> GridAnalysis:
    """Two policies, one scenario; Libra's cells are all gaps."""
    cell = {"FCFS-BF": {"job mix": SeparateRisk(0.75, 0.125)},
            "Libra": {"job mix": SeparateRisk.gap()}}
    gap = {"digest": "ab" * 32, "policy": "Libra", "scenario": "job mix",
           "knob": "pct_high_urgency", "value": 20.0, "kind": "timeout",
           "reason": "event budget exhausted"}
    return GridAnalysis(
        model="bid", set_name="A", policies=("FCFS-BF", "Libra"),
        scenarios=("job mix",),
        separate={o: {p: dict(s) for p, s in cell.items()} for o in Objective},
        gaps=(gap,),
    )


def test_grid_roundtrip_exact():
    # Every cell's floats survive the document, and a strict-JSON
    # round trip of it, exactly.
    grid = small_grid()
    doc = json.loads(json.dumps(grid.to_dict(), allow_nan=False))
    assert doc["model"] == grid.model
    assert doc["set_name"] == grid.set_name
    assert doc["policies"] == list(grid.policies)
    assert doc["scenarios"] == list(grid.scenarios)
    assert set(doc["separate"]) == {o.value for o in Objective}
    for objective in Objective:
        for policy in grid.policies:
            for scenario in grid.scenarios:
                risk = grid.separate[objective][policy][scenario]
                pair = doc["separate"][objective.value][policy][scenario]
                assert pair == [risk.performance, risk.volatility]
    assert "gaps" not in doc  # omitted for a complete grid


def test_grid_file_roundtrip(tmp_path):
    grid = small_grid()
    path = grid.save(tmp_path / "grid.json")
    assert path == tmp_path / "grid.json"
    text = path.read_text()
    assert text == json.dumps(grid.to_dict(), indent=1, sort_keys=True) + "\n"
    assert json.loads(text) == grid.to_dict()
    assert [p.name for p in tmp_path.iterdir()] == ["grid.json"]  # no temp file left


def test_loaded_document_is_valid_json(tmp_path):
    path = small_grid().save(tmp_path / "grid.json")
    doc = json.loads(path.read_text())
    assert doc["format"] == "repro-grid"
    assert doc["version"] == 1


def test_gap_cells_are_strict_json_null_pairs(tmp_path):
    grid = degraded_grid()
    doc = grid.to_dict()
    json.dumps(doc, allow_nan=False)  # strict JSON: no NaN literal
    for objective in Objective:
        by_policy = doc["separate"][objective.value]
        assert by_policy["Libra"]["job mix"] == [None, None]
        assert by_policy["FCFS-BF"]["job mix"] == [0.75, 0.125]
    assert doc["gaps"] == [dict(gap) for gap in grid.gaps]
    saved = json.loads(grid.save(tmp_path / "grid.json").read_text())
    assert saved == doc


def test_save_overwrites_a_truncated_document(tmp_path):
    grid = small_grid()
    path = grid.save(tmp_path / "grid.json")
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    grid.save(path)
    assert path.read_text() == text
