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



def top_level_names(source):
    """Names a module binds at its top level by def, class or assignment."""
    bound = set()
    for stmt in ast.parse(source).body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            bound.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return bound


def unread_exports(init_source, sources):
    """Names `__init__` re-exports that no module reads: a read counts in
    a module that defines or imports the name, as an `ast.Load` of the
    bare name outside the function or class defining it; sources maps
    module names to their text."""
    exported = {
        alias.asname or alias.name
        for node in ast.parse(init_source).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    read = set()
    for source in sources.values():
        tree = ast.parse(source)
        visible = top_level_names(source) | {
            alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names
        }
        for stmt in tree.body:
            own = {stmt.name} if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else set()
            loads = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            read |= (loads - own) & visible
    return sorted(exported - read)


# Exported for the package's users although no package module reads them.
UNREAD_EXPORTS = {
    "delta": "the benchmark tracer's modforms.delta span wraps it",
    "load_records": "the benchmark's scan job and the tests read record files with it",
    "main_bound": "the paper's closed-form bound, called by acceptance 9 and README 'Library'",
    "murty_bound": "the paper's Murty bound, called by acceptance 9 and README 'Library'",
}


def test_unread_exports_are_found():
    init = "from .a import recursive, used, Cls, CONST, unused as alias\nfrom . import b\n__version__ = '1'\n"
    sources = {
        "a": (
            "def recursive(n):\n"
            "    return recursive(n - 1)\n"
            "def used():\n"
            "    return Cls\n"
            "class Cls:\n"
            "    pass\n"
            "CONST = 1\n"
            "def unused():\n"
            "    pass\n"
        ),
        "b": (
            "from .a import used\n"
            "used()\n"
            "def shadows(recursive):\n"
            "    CONST = 2\n"
            "    return recursive, CONST\n"
            "x = obj.unused\n"
        ),
    }
    assert unread_exports(init, sources) == ["CONST", "alias", "b", "recursive"]


def test_every_export_is_read_in_the_package():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    init = (PACKAGE / "__init__.py").read_text(encoding="utf-8")
    assert unread_exports(init, sources) == sorted(UNREAD_EXPORTS)


def package_imports(source, package="heckescan"):
    """Line numbers of the imports that reach into the package: relative
    ones and absolute ones of the package or its modules."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] if node.level == 0 else [package]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        if any(n == package or n.startswith(package + ".") for n in names):
            found.append(node.lineno)
    return found


def names_read(source, names):
    """Those of names that source reads: as a bare name, as an attribute
    or in an import."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            read.update(alias.name for alias in node.names)
    return sorted(read & set(names))


def test_package_imports_are_found():
    source = (
        "import sys\n"
        "from . import cli\n"
        "from .hecke import x\n"
        "import heckescan.series\n"
        "from heckescan import modp\n"
        "from heckescanner import y\n"
        "def f():\n"
        "    from ..heckescan import z\n"
    )
    assert package_imports(source) == [2, 3, 4, 5, 8]


def test_names_read_and_top_level_names_are_found():
    source = (
        "from .m import _a\n"
        "import _b\n"
        "_c = 1\n"
        "_d: int = 2\n"
        "x, (_e, y) = 3, (4, 5)\n"
        "def _f():\n"
        "    _g = m._h\n"
        "    return _c\n"
        "class _I:\n"
        "    _j = 0\n"
    )
    names = ["_a", "_b", "_c", "_d", "_e", "_f", "_g", "_h", "_I", "_j"]
    assert names_read(source, names) == ["_a", "_b", "_c", "_h"]
    assert top_level_names(source) == {"_c", "_d", "x", "_e", "y", "_f", "_I"}


# Packed arithmetic mod a prime: the kernels on the byte-window format,
# the Gauss-Jordan inverse and the Dixon solver.
MODP_NAMES = {
    "_CAST", "_window", "_pack", "_unpack", "_reducer", "_factor_degrees_mod_q",
    "_pm_trim", "_pm_gcd", "_inverse_mod_p", "_LIFT_PRIMES", "_dixon_solve",
}


def test_packed_arithmetic_lives_in_modp_alone():
    modp = (PACKAGE / "modp.py").read_text(encoding="utf-8")
    hecke = (PACKAGE / "hecke.py").read_text(encoding="utf-8")
    assert MODP_NAMES <= top_level_names(modp)
    assert not MODP_NAMES & top_level_names(hecke)
    assert package_imports(modp) == []
    assert names_read(hecke, ["_pack", "_unpack", "_window", "_CAST"]) == []


def import_time_imports(source, module):
    """Line numbers of the statements that import `module` or one of its
    submodules when the source is imported: at the top level, in the
    bodies of `try`, `if`, `with` and classes, but not inside a function."""
    found = []
    todo = [ast.parse(source)]
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            names = []
        if any(n == module or n.startswith(module + ".") for n in names):
            found.append(node.lineno)
        todo.extend(ast.iter_child_nodes(node))
    return sorted(found)


def test_import_time_imports_are_found():
    source = (
        "import mpmath\n"
        "from mpmath.libmp import fone\n"
        "import mpmathx, os\n"
        "try:\n"
        "    import gmpy2\n"
        "except ImportError:\n"
        "    from mpmath import libmp\n"
        "if True:\n"
        "    import mpmath.libmp as libmp\n"
        "else:\n"
        "    from . import mpmath\n"
        "class C:\n"
        "    import mpmath\n"
        "def f():\n"
        "    import mpmath\n"
    )
    assert import_time_imports(source, "mpmath") == [1, 2, 7, 9, 13]


def test_no_module_imports_mpmath_at_import_time():
    # scan, charpoly and every scan worker run without mpmath; only the
    # functions that make, read or print an extended-precision value load it
    found = [
        (p.name, line)
        for p in sorted(PACKAGE.glob("*.py"))
        for line in import_time_imports(p.read_text(encoding="utf-8"), "mpmath")
    ]
    assert found == []
