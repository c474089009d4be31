"""The CI workflow runs test modules, not inline scripts, and names only
tests that exist.

Every smoke lives in a module that ruff lints and ``pytest -m smoke`` runs
locally, so ``.github/workflows/ci.yml`` holds no ``<< 'EOF'`` heredoc.
Every ``tests/…`` path and ``path::test`` node id it names must resolve,
so a renamed or deleted smoke fails here rather than only in CI.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
TEXT = WORKFLOW.read_text()
#: ``tests/…`` paths, each with an optional ``::node`` id.
REFERENCES = sorted(set(re.findall(r"\btests/[\w./-]*\w(?:::\w+)?", TEXT)))


def test_workflow_has_no_heredoc():
    assert "<<" not in TEXT


def test_workflow_names_tests():
    assert any("::" in ref for ref in REFERENCES), REFERENCES


@pytest.mark.parametrize("ref", REFERENCES)
def test_named_test_exists(ref):
    path, _, node = ref.partition("::")
    assert (ROOT / path).exists(), f"ci.yml names missing {path}"
    if node:
        tree = ast.parse((ROOT / path).read_text())
        names = {n.name for n in tree.body
                 if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        assert node in names, f"ci.yml names missing test {ref}"
