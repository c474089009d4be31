"""The import graph follows the package layering.

A fresh process that builds and runs one cell loads only the simulation
stack; the risk analysis, the run store, the pipeline, the market, the farm
and the process-pool machinery load only on the paths that use them.  A
package ``__init__`` holds only its docstring, so importing a package loads
none of its submodules; every name is imported from its defining module.

The guards assert module names, never timings, so they hold on every
supported interpreter.  A last guard keeps test-only crash injection out of
the program: it lives in ``tests/crashkit.py``.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

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


# -- one home per name ----------------------------------------------------------

#: the packages whose ``__init__`` re-exports names: the policy registry, and
#: the engine and perf names that tests, benchmarks and perfbench import.
EXPORTING_PACKAGES = ("policies", "sim", "perf")


def test_package_inits_hold_only_their_docstring():
    """Every other package is its docstring; a name is imported from the
    module that defines it (``repro`` also holds ``__version__``)."""
    inits = sorted((SRC / "repro").rglob("__init__.py"))
    assert len(inits) > len(EXPORTING_PACKAGES) + 1
    for init in inits:
        package = init.parent.relative_to(SRC / "repro").parts
        if package and package[0] in EXPORTING_PACKAGES:
            continue
        tree = ast.parse(init.read_text())
        assert ast.get_docstring(tree), f"{init} has no docstring"
        rest = [ast.unparse(stmt) for stmt in tree.body[1:]]
        if not package:
            rest = [stmt for stmt in rest if not stmt.startswith("__version__ = ")]
        assert rest == [], f"{init} holds more than its docstring: {rest}"


def test_submodules_import_from_their_package():
    from repro.experiments import figures
    from repro.farm import leases

    assert figures.__name__ == "repro.experiments.figures"
    assert leases.__name__ == "repro.farm.leases"


def test_correlated_machine_has_one_home():
    """The correlated machine has one home, ``repro.faults.config``; the
    fault sweep module does not re-export it."""
    from repro.experiments import faultsweep
    from repro.faults import config

    assert not hasattr(faultsweep, "CORRELATED_FAULTS")
    assert config.CORRELATED_FAULTS.enabled and config.CORRELATED_FAULTS.domain_size == 8


# -- no crash switch in the program ----------------------------------------------

#: calls that signal a process id; a first argument of ``getpid()`` / ``getpgrp()``
#: / ``getpgid(…)`` or ``0`` is the calling process (or its group).
KILL_CALLS = ("kill", "killpg")
OWN_PID_CALLS = ("getpid", "getpgrp", "getpgid")


def _callee(func: ast.expr):
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _signals_itself(call: ast.Call) -> bool:
    name = _callee(call.func)
    if name == "raise_signal":
        return True
    if name not in KILL_CALLS or not call.args:
        return False
    target = call.args[0]
    if isinstance(target, ast.Constant):
        return target.value == 0
    return isinstance(target, ast.Call) and _callee(target.func) in OWN_PID_CALLS


def _imported(node: ast.AST) -> list:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [f"{node.module}.{alias.name}" for alias in node.names]
    return []


def test_the_program_holds_no_crash_switch():
    """No module is named ``chaos`` or imports one, none mentions a
    ``REPRO_CHAOS`` switch, and none signals its own process."""
    found = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        relative = path.relative_to(SRC)
        name, text = relative.as_posix(), path.read_text()
        if "chaos" in relative.with_suffix("").parts:
            found.append(f"{name}: a module named chaos")
        if "REPRO_CHAOS" in text:
            found.append(f"{name}: mentions REPRO_CHAOS")
        for node in ast.walk(ast.parse(text)):
            if any("chaos" in module.split(".") for module in _imported(node)):
                found.append(f"{name}:{node.lineno}: imports chaos")
            if isinstance(node, ast.Call) and _signals_itself(node):
                found.append(f"{name}:{node.lineno}: signals its own process")
    assert found == [], "\n".join(found)
