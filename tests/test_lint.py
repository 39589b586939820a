"""Static checks on the package source that need no linter installed."""

import ast
import importlib
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "heckescan"
# __init__.py imports names to re-export them, not to use them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
README = PACKAGE.parent.parent / "README.md"


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


def unreferenced_private_defs(sources):
    """Module-level `_private` functions and classes that no module reads,
    as (module, line, name); sources maps module names to their text.  A
    name read anywhere counts for a definition of that name anywhere."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if (
                isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name.startswith("_")
                and not node.name.startswith("__")
            ):
                defined.append((module, node.lineno, node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return sorted(d for d in defined if d[2] not in used)


def unused_parameters(source):
    """Arguments of a function or lambda that its body never reads, as
    (line, function, name); `self` and `cls` are exempt.  A read in a
    nested function counts; defaults and decorators are not the body."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node, ast.Lambda) else ast.Module(node.body, [])
        read = {n.id for n in ast.walk(body) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        found += [
            (a.lineno, name, a.arg) for a in params if a.arg not in read and a.arg not in ("self", "cls")
        ]
    return sorted(found)


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


def test_unreferenced_private_defs_are_found():
    sources = {
        "a": (
            "def _dead():\n"
            "    return _called()\n"
            "def _called():\n"
            "    pass\n"
            "class _Unused:\n"
            "    def _method(self):\n"
            "        pass\n"
            "def __getattr__(name):\n"
            "    pass\n"
            "def public():\n"
            "    pass\n"
            "def _imported():\n"
            "    pass\n"
            "def _read_as_attribute():\n"
            "    pass\n"
        ),
        "b": "from .a import _imported\nimport a\nx = a._read_as_attribute\n",
    }
    assert unreferenced_private_defs(sources) == [("a", 1, "_dead"), ("a", 5, "_Unused")]


def test_no_unreferenced_private_defs():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private_defs(sources) == []


def test_unused_parameters_are_found():
    source = (
        "def f(a, b, /, c, *args, d, e=None, **kw):\n"
        "    return a + args[0] + kw['x']\n"
        "class C:\n"
        "    def m(self, x):\n"
        "        return 1\n"
        "    @classmethod\n"
        "    def n(cls, y=lambda z: 0):\n"
        "        def inner():\n"
        "            return y\n"
        "        return inner\n"
        "def g(w, v=len):\n"
        "    w = 2\n"
        "    return 0\n"
    )
    assert unused_parameters(source) == [
        (1, "f", "b"), (1, "f", "c"), (1, "f", "d"), (1, "f", "e"),
        (4, "m", "x"), (7, "<lambda>", "z"), (11, "g", "v"), (11, "g", "w"),
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text(encoding="utf-8")) == [], path.name


def stale_private_references(text, modules):
    """Backticked private names in text, `_name` or `module._name`, that
    are no attribute of the module named, or of any module when none is
    named; modules maps module names to modules."""
    stale = []
    for module, name in re.findall(r"`(?:(\w+)\.)?(_[A-Za-z]\w*)`", text):
        owners = [modules[module]] if module in modules else [] if module else modules.values()
        if not any(hasattr(m, name) for m in owners):
            stale.append(f"{module}.{name}" if module else name)
    return stale


def test_stale_private_references_are_found():
    modules = {"a": SimpleNamespace(_kept=1), "b": SimpleNamespace(_other=2)}
    text = "`_kept` `a._kept` `b._kept` `_gone` `c._other` `_other` `__init__` `plain` `a._kept(x)`"
    assert stale_private_references(text, modules) == ["b._kept", "_gone", "c._other"]


def test_readme_private_references_resolve():
    # __main__ runs the CLI on import; it defines nothing the README names
    modules = {p.stem: importlib.import_module(f"heckescan.{p.stem}") for p in MODULES if p.stem != "__main__"}
    text = README.read_text(encoding="utf-8")
    assert re.search(r"`(\w+\.)?_[A-Za-z]\w*`", text)
    assert stale_private_references(text, modules) == []
