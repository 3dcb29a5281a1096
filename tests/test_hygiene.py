"""Source hygiene: every top-level import in the package is used, every
module-level private name is read somewhere, and the package namespace
binds only its modules.

No linter is a dependency, so these are small ``ast`` checks.  A name
counts as used when it appears anywhere in the module as a bare name
(``np`` in ``np.zeros`` included).  A private name (``_x``) counts as read
when some top-level statement of the package other than its own
definition names it, imports it or reads it as an attribute.
``__init__.py`` imports modules without using them, so it has its own
rule: each public name has one import path, its home module.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "simplexgeo"


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


def unread_private_names(sources: list[str]) -> list[str]:
    """Module-level ``_x`` names that no other top-level statement of the sources reads."""
    statements = [node for source in sources for node in ast.parse(source).body]
    unread = []
    for node in statements:
        for name in _defined_names(node):
            if not name.startswith("_") or name.startswith("__"):
                continue
            if not any(name in _named(other) for other in statements if other is not node):
                unread.append(name)
    return sorted(unread)


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


def test_package_namespace_binds_only_modules():
    assert namespace_violations((PACKAGE / "__init__.py").read_text(encoding="utf-8")) == []
