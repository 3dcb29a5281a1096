"""Source hygiene: every top-level import in the package is used, every
module-level private name is read somewhere, every public name has a
caller besides the unit tests, and the package namespace binds only its
modules.

No linter is a dependency, so these are small ``ast`` checks.  A name
counts as used when it appears anywhere in the module as a bare name
(``np`` in ``np.zeros`` included).  A private name (``_x``) counts as read
when some top-level statement of the package other than its own
definition names it, imports it or reads it as an attribute.  A public
name counts as read the same way, or when a script under ``scripts/`` or
``tests/test_acceptance.py`` names it.  A defaulted parameter of a public
module-level function counts as passed when some call of that name in the
package, a script, ``tests/test_acceptance.py`` or ``perfbench/*.py`` gives
it by keyword, by position or through ``*args`` / ``**kwargs``.
``__init__.py`` imports modules without using them, so it has its own
rule: each public name has one import path, its home module.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "simplexgeo"
SCRIPTS = ROOT / "scripts"
PERFBENCH = ROOT / "perfbench"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def _defined_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _named(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def _unread(sources: list[str], wanted, readers: list[str] = ()) -> list[str]:
    """Module-level names, among those ``wanted`` accepts, that no other top-level
    statement of the sources and no reader source names."""
    statements = [node for source in sources for node in ast.parse(source).body]
    named = [_named(node) for node in statements]
    read_outside = set().union(*(_named(ast.parse(reader)) for reader in readers))
    unread = []
    for node in statements:
        for name in _defined_names(node):
            if not wanted(name) or name in read_outside:
                continue
            if not any(name in names for other, names in zip(statements, named) if other is not node):
                unread.append(name)
    return sorted(unread)


def unread_private_names(sources: list[str]) -> list[str]:
    """Module-level ``_x`` names that no other top-level statement of the sources reads."""
    return _unread(sources, lambda name: name.startswith("_") and not name.startswith("__"))


def unread_public_names(sources: list[str], readers: list[str]) -> list[str]:
    """Module-level public names that no other top-level statement of the sources
    reads and no reader names: a library name that only unit tests would reach."""
    return _unread(sources, lambda name: not name.startswith("_"), readers)


def unpassed_defaults(sources: list[str], callers: list[str]) -> list[str]:
    """``function(parameter)`` for each defaulted parameter of a public module-level
    function that no call of that name in the callers passes: a knob nobody turns."""
    defaults = {}
    for source in sources:
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                args = node.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                params = [(a.arg, i) for i, a in enumerate(positional) if i >= first]
                params += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
                defaults.setdefault(node.name, []).extend(params)
    passed = set()
    for caller in callers:
        for call in ast.walk(ast.parse(caller)):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            starred = [i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)]
            keywords = {kw.arg for kw in call.keywords}
            for param, position in defaults.get(name, ()):
                if (
                    param in keywords
                    or None in keywords  # **kwargs
                    or (position is not None and position < len(call.args))
                    or (position is not None and starred and starred[0] <= position)
                ):
                    passed.add((name, param))
    return sorted(
        f"{name}({param})"
        for name, params in defaults.items()
        for param, _ in params
        if (name, param) not in passed
    )


def namespace_violations(source: str) -> list[str]:
    """Top-level statements other than the docstring, ``from . import <module>``
    and the ``__version__`` assignment."""
    bad = []
    for i, node in enumerate(ast.parse(source).body):
        docstring = i == 0 and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        module_import = isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
        version = (
            isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] == ["__version__"]
        )
        if not (docstring or module_import or version):
            bad.append(ast.unparse(node))
    return bad


def test_checker_flags_an_unused_import():
    source = "from __future__ import annotations\nimport os\nimport numpy as np\nnp.zeros(1)\n"
    assert unused_imports(source) == ["os"]


def test_checker_flags_an_unread_private_name():
    home = "def _helper():\n    return _helper()\n\n_TABLE = {}\n_orphan = 1\n__all__ = []\n"
    user = "from .home import _helper\n\ndef f():\n    return home._TABLE\n"
    assert unread_private_names([home, user]) == ["_orphan"]
    assert unread_private_names([home]) == ["_TABLE", "_helper", "_orphan"]


def test_checker_flags_a_name_only_tests_reach():
    home = "def helper():\n    return 1\n\ndef used():\n    return helper()\n\ndef orphan():\n    pass\n"
    script = "from simplexgeo.home import used\n\nused()\n"
    assert unread_public_names([home], [script]) == ["orphan"]
    assert unread_public_names([home], []) == ["orphan", "used"]


def test_checker_flags_a_default_no_caller_passes():
    home = (
        "def f(x, scale=1.0, *, fast=False):\n    return x\n\n"
        "def g(x, y=0):\n    return x\n\n"
        "def h(x=0):\n    return x\n\n"
        "def _private(x=0):\n    return x\n"
    )
    script = "f(1, 2.0)\nmod.g(*pair)\nh(**options)\n_private()\n"
    assert unpassed_defaults([home], [script]) == ["f(fast)"]
    assert unpassed_defaults([home], ["f(1, fast=True)\ng(1)\n"]) == ["f(scale)", "g(y)", "h(x)"]


def test_namespace_rule_rejects_a_re_export():
    source = '"""Doc."""\n\nfrom . import flows\nfrom .flows import solve_lp\n\n__version__ = "0"\n'
    assert namespace_violations(source) == ["from .flows import solve_lp"]


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_every_private_name_is_read():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert unread_private_names(sources) == []


def test_every_public_name_has_a_caller_besides_unit_tests():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    readers = [p.read_text(encoding="utf-8") for p in sorted(SCRIPTS.glob("*.py"))]
    readers.append((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    assert unread_public_names(sources, readers) == []


def test_every_default_is_passed_by_a_caller_besides_unit_tests():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    callers = sources + [p.read_text(encoding="utf-8") for p in sorted(SCRIPTS.glob("*.py"))]
    callers.append((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    callers += [p.read_text(encoding="utf-8") for p in sorted(PERFBENCH.glob("*.py"))]
    assert unpassed_defaults(sources, callers) == []


def test_package_namespace_binds_only_modules():
    assert namespace_violations((PACKAGE / "__init__.py").read_text(encoding="utf-8")) == []
