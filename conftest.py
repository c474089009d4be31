"""Repo-root pytest configuration.

Tier-1 (`PYTHONPATH=src python -m pytest -x -q`) collects only ``tests/``
(``testpaths`` in pyproject.toml).  The paper-exhibit benchmarks under
``benchmarks/`` are opt-in so CI stays fast:

- ``pytest benchmarks --run-bench`` — run them explicitly, or
- ``pytest tests benchmarks -m bench`` — select them by marker.

Collected benchmark items are auto-tagged with the ``bench`` marker and
skipped unless one of the opt-ins is present.  See docs/benchmarking.md.

The CI smokes under ``tests/smoke/`` (``smoke`` marker) SIGKILL workers,
drive farm fleets or time the machine against a perf budget, so they are
opt-in too: ``pytest -m smoke`` collects and runs every one of them;
without it ``tests/smoke/`` is not collected at all.
"""

from __future__ import annotations

from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent / "benchmarks"
SMOKE_DIR = Path(__file__).resolve().parent / "tests" / "smoke"


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--run-bench",
        action="store_true",
        default=False,
        help="run the paper-exhibit benchmarks under benchmarks/",
    )


def pytest_ignore_collect(collection_path: Path, config: pytest.Config):
    if "smoke" in (config.getoption("-m") or ""):
        return None
    return collection_path.resolve().is_relative_to(SMOKE_DIR) or None


@pytest.hookimpl(tryfirst=True)
def pytest_collection_modifyitems(config: pytest.Config, items: list) -> None:
    opted_in = config.getoption("--run-bench") or "bench" in (
        config.getoption("-m") or ""
    )
    skip_bench = pytest.mark.skip(
        reason="benchmarks are opt-in: pass --run-bench or -m bench"
    )
    for item in items:
        try:
            in_bench_dir = Path(item.fspath).resolve().is_relative_to(BENCH_DIR)
        except (OSError, ValueError):  # pragma: no cover - exotic collectors
            in_bench_dir = False
        if in_bench_dir:
            item.add_marker(pytest.mark.bench)
            if not opted_in:
                item.add_marker(skip_bench)
