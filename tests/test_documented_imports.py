"""Every ``repro`` import that the examples and the docs show resolves.

A name is imported from the module that defines it, so a name that moves
or goes would break a copied snippet without failing any test.  This
module reads every ``from repro… import name`` and ``import repro…`` in
``examples/*.py`` and in the fenced ```` ```python ```` blocks of the
README, ``docs/*.md``, ``EXPERIMENTS.md`` and ``DESIGN.md``, and checks
that each imported name is an attribute or a submodule of its module.
"""

import ast
import importlib
import importlib.util
import re
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = [
    ROOT / "README.md",
    *sorted((ROOT / "docs").glob("*.md")),
    ROOT / "EXPERIMENTS.md",
    ROOT / "DESIGN.md",
]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
PYTHON_BLOCK = re.compile(r"^[ \t]*```python[^\n]*\n(.*?)^[ \t]*```", re.S | re.M)


def python_sources(path: Path) -> list:
    """The Python code of an example, or of each python block of a page."""
    text = path.read_text()
    if path.suffix == ".py":
        return [text]
    return [textwrap.dedent(block) for block in PYTHON_BLOCK.findall(text)]


def repro_imports(source: str) -> list:
    """``(module, name)`` per imported ``repro`` name; ``name`` is None for
    a plain ``import repro…``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
            found.extend((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            found.extend((alias.name, None) for alias in node.names
                         if alias.name.split(".")[0] == "repro")
    return found


def resolves(module: str, name) -> bool:
    try:
        target = importlib.import_module(module)
    except ImportError:
        return False
    if name is None:
        return True
    if hasattr(target, name):
        return True
    return hasattr(target, "__path__") and importlib.util.find_spec(f"{module}.{name}") is not None


SOURCES = {path.relative_to(ROOT).as_posix(): path for path in DOCS + EXAMPLES}


def test_the_scan_finds_the_documented_imports():
    count = sum(len(repro_imports(source))
                for path in SOURCES.values() for source in python_sources(path))
    assert count >= 100


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_documented_imports_resolve(source):
    missing = [
        f"{module}.{name}" if name else module
        for code in python_sources(SOURCES[source])
        for module, name in repro_imports(code)
        if not resolves(module, name)
    ]
    assert missing == [], f"{source} imports names that do not exist: {missing}"
