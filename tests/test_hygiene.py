"""Source hygiene: every top-level import in the package is used, and the
package namespace binds only its modules.

No linter is a dependency, so these are small ``ast`` checks.  A name
counts as used when it appears anywhere in the module as a bare name
(``np`` in ``np.zeros`` included).  ``__init__.py`` imports modules
without using them, so it has its own rule: each public name has one
import path, its home module.
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


def test_package_namespace_binds_only_modules():
    assert namespace_violations((PACKAGE / "__init__.py").read_text(encoding="utf-8")) == []
