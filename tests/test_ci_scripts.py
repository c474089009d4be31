"""The inline Python scripts of the CI workflow compile and import only
names that exist.

Each ``python - << 'EOF'`` heredoc in ``.github/workflows/ci.yml`` is
pulled out, compiled, and every ``from repro… import name`` in it is
resolved, so a renamed or deleted name fails here rather than only in CI.
"""

import ast
import importlib
import textwrap
from collections import Counter
from pathlib import Path

import pytest

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "ci.yml"


def heredocs() -> list[tuple[str, str]]:
    """``(step name, dedented body)`` of every ``python - << 'EOF'`` block.

    A block is named by the ``name:`` of the step that holds it, so an edit
    elsewhere in the workflow does not rename its test; a second block in
    one step gets a ``#2`` suffix.
    """
    lines = WORKFLOW.read_text().splitlines()
    blocks = []
    per_step: Counter[str] = Counter()
    step = ""
    for i, line in enumerate(lines):
        if line.lstrip().startswith("- name:"):
            step = line.split("name:", 1)[1].strip()
        elif line.rstrip().endswith("python - << 'EOF'"):
            end = next(j for j in range(i + 1, len(lines)) if lines[j].strip() == "EOF")
            per_step[step] += 1
            name = step if per_step[step] == 1 else f"{step} #{per_step[step]}"
            blocks.append((name, textwrap.dedent("\n".join(lines[i + 1:end]))))
    return blocks


BLOCKS = heredocs()


def test_workflow_has_inline_scripts():
    assert len(BLOCKS) >= 2
    assert all(name for name, _ in BLOCKS)


@pytest.mark.parametrize("step,source", BLOCKS, ids=[name for name, _ in BLOCKS])
def test_inline_script_imports_resolve(step, source):
    compile(source, f"ci.yml: {step}", "exec")
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
            module = importlib.import_module(node.module)
            for alias in node.names:
                if hasattr(module, alias.name):
                    continue
                try:  # a submodule not yet loaded
                    importlib.import_module(f"{node.module}.{alias.name}")
                except ImportError:
                    pytest.fail(f"ci.yml: {step}: from {node.module} import "
                                f"{alias.name} does not resolve")
