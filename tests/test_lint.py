"""Static checks on the package source that need no linter installed."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "heckescan"
# __init__.py imports names to re-export them, not to use them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names a module imports but never reads, with their line numbers;
    `from __future__` imports are directives, not names."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "import json as js\n"
        "from .a import b, c as d\n"
        "def f():\n"
        "    import sys\n"
        "    return os.sep, d\n"
    )
    assert unused_imports(source) == [(3, "js"), (4, "b"), (6, "sys")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == [], path.name
