"""The import graph follows the package layering.

A fresh process that builds and runs one cell loads only the simulation
stack; the risk analysis, the run store, the pipeline, the market, the farm
and the process-pool machinery load only on the paths that use them.  The
package façades that make this possible resolve their names lazily
(PEP 562) and must keep behaving exactly like eager packages.

The guards assert module names, never timings, so they hold on every
supported interpreter.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]

#: modules no simulation of one cell may load (a name forbids its submodules).
OUTSIDE_SIM_STACK = (
    "repro.market",
    "repro.farm",
    "repro.core.apriori",
    "repro.core.frontier",
    "repro.core.ranking",
    "repro.core.separate",
    "repro.core.integrated",
    "repro.core.riskplot",
    "repro.experiments.marketsweep",
    "repro.experiments.pipeline",
    "repro.experiments.runstore",
    "multiprocessing",
    "concurrent.futures",
)
POOL_MODULES = ("multiprocessing", "concurrent.futures")

#: every package whose façade resolves its names on first access.
LAZY_PACKAGES = (
    "repro",
    "repro.core",
    "repro.experiments",
    "repro.faults",
    "repro.farm",
    "repro.market",
    "repro.workload",
)


def loaded_after(code: str) -> set:
    """The modules a fresh interpreter holds after running ``code``."""
    script = textwrap.dedent(code) + (
        "\nimport json as _json, sys as _sys\nprint(_json.dumps(sorted(_sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def offenders(modules: set, forbidden=OUTSIDE_SIM_STACK) -> list:
    return sorted(
        m for m in modules
        if any(m == f or m.startswith(f + ".") for f in forbidden)
    )


# -- import-graph guard ------------------------------------------------------------


def test_import_repro_loads_no_subpackage():
    modules = loaded_after("import repro")
    assert offenders(modules) == []
    assert sorted(m for m in modules if m.startswith("repro.")) == []


def test_one_cell_loads_only_the_simulation_stack():
    modules = loaded_after("""
        from repro.experiments.runner import run_single
        from repro.experiments.scenarios import ExperimentConfig

        config = ExperimentConfig(n_jobs=30, total_procs=16)
        assert config.faults.enabled is False
        run_single(config, "FCFS-BF", "bid")
        run_single(config, "Libra", "commodity")
    """)
    assert offenders(modules) == []
    assert "repro.experiments.runner" in modules


def test_cli_help_loads_only_the_parser():
    modules = loaded_after("""
        import contextlib, io

        from repro.cli import main

        with contextlib.redirect_stdout(io.StringIO()):
            try:
                main(["--help"])
            except SystemExit:
                pass
    """)
    assert offenders(modules) == []
    assert "repro.policies" not in modules


def test_serial_plan_never_loads_the_process_pool():
    modules = loaded_after("""
        from repro.experiments.pipeline import execute_plan, grid_plan
        from repro.experiments.runstore import RunStore
        from repro.experiments.scenarios import ExperimentConfig, Scenario

        base = ExperimentConfig(n_jobs=20, total_procs=16)
        plan = grid_plan(["FCFS-BF"], "bid", base, "A",
                         [Scenario("two", "arrival_delay_factor", (0.5, 1.0))])
        assert len(plan) == 2
        assert execute_plan(plan, RunStore(), n_workers=1).executed == 2
    """)
    assert "repro.experiments.pipeline" in modules
    assert offenders(modules, POOL_MODULES) == []


# -- façade contract -------------------------------------------------------------


def lazy_map(package: str) -> dict:
    """``{name: defining module}`` as the façade's run-time map declares it."""
    module = importlib.import_module(package)
    source = Path(module.__file__).read_text()
    for node in ast.parse(source).body:
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and getattr(node.value.func, "id", None) == "_lazy_exports"
        ):
            exports = ast.literal_eval(node.value.args[1])
            return {name: mod for mod, names in exports.items() for name in names}
    raise AssertionError(f"{package} declares no lazy exports")


def type_checking_imports(package: str) -> dict:
    """``{name: module}`` of the façade's ``if TYPE_CHECKING:`` block."""
    module = importlib.import_module(package)
    found = {}
    for node in ast.parse(Path(module.__file__).read_text()).body:
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            for stmt in node.body:
                assert isinstance(stmt, ast.ImportFrom), ast.dump(stmt)
                for alias in stmt.names:
                    found[alias.asname or alias.name] = stmt.module
    return found


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_static_imports_match_the_lazy_map(package):
    """The names linters see are the names the façade resolves."""
    declared = lazy_map(package)
    assert type_checking_imports(package) == declared
    module = importlib.import_module(package)
    assert set(module.__all__) - {"__version__"} == set(declared)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_name_resolves_to_its_defining_object(package):
    module = importlib.import_module(package)
    for name, origin in lazy_map(package).items():
        assert getattr(module, name) is getattr(importlib.import_module(origin), name)
        assert name in dir(module)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_star_import_binds_all(package):
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    module = importlib.import_module(package)
    for name in module.__all__:
        assert namespace[name] is getattr(module, name)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_unknown_name_raises_attribute_error(package):
    module = importlib.import_module(package)
    assert not hasattr(module, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    with pytest.raises(ImportError):
        exec(f"from {package} import no_such_name", {})


def test_submodules_still_import_through_a_lazy_facade():
    from repro.experiments import figures
    from repro.farm import leases

    assert figures.__name__ == "repro.experiments.figures"
    assert leases.__name__ == "repro.farm.leases"


def test_fault_sweep_reexports_the_correlated_machine():
    from repro.experiments import faultsweep
    from repro.faults import config

    assert faultsweep.CORRELATED_FAULTS is config.CORRELATED_FAULTS
    assert config.CORRELATED_FAULTS.enabled and config.CORRELATED_FAULTS.domain_size == 8
