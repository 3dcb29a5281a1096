"""Source hygiene: every top-level import in the package is used, every
module-level private name is read somewhere, every public name has a
caller besides the unit tests, and the package namespace binds only its
modules.

No linter is a dependency, so these are small ``ast`` checks.  A name
counts as used when it appears anywhere in the module as a bare name
(``np`` in ``np.zeros`` included).  A private name (``_x``) counts as read
when some top-level statement of the package other than its own
definition names it, imports it or reads it as an attribute.  The private
names one module reads from another (``from .x import _y`` or ``x._y``)
are exactly ``_read_only``, ``_require_finite`` and ``_SOFTMAX_BLOCK``, so
a kernel's helpers stay with their kernel.  A public
name counts as read the same way, or when ``tests/test_acceptance.py`` names
it.  A defaulted parameter of a public module-level function counts as
passed when some call of that name in the package, in
``tests/test_acceptance.py`` or in ``perfbench/*.py`` gives it by keyword,
by position or through ``*args`` / ``**kwargs``.  A defaulted
field of a public ``@dataclass`` is the converse case: its default counts as
used when some constructor call among the same callers leaves the field out,
and a field that every call passes should be required (``init=False`` and
``InitVar`` fields are skipped).  No package statement calls a class the
package defines and discards the result: an object built only for the
error its constructor raises is a check the rule's own function makes.
No package statement reads the environment or the wall clock (``os.environ``,
``os.getenv``, ``time.time``, ``datetime.now`` and the like, as an attribute
or a ``from`` import), so the command line alone decides a run.
No package statement names ``numpy.random`` (as an attribute of numpy or in
an import): the package draws from ``_draws.Draws``, so no command loads it.
``__init__.py`` imports modules without using them, so it has its own
rule: each public name has one import path, its home module.  A constant
that ``README.md`` quotes in backticks as ``[simplexgeo.]module.NAME =
value`` must have that value in its module.  In ``tests/conftest.py`` every
module-level function needs a user in ``tests/``: a fixture some function
takes as a parameter, any other function a name that some other statement reads.
The commands that ``cli.py``'s docstring and README's CLI example block name
are the keys of ``cli._COMMANDS``, and the commands that README's "Only ...
write CSV" sentence names are those the table opens ``--format csv`` to.
The ``--flag`` tokens of README's CLI section are the parser's option strings
other than ``-h``/``--help``.

The package's size is quoted in one unit, counted by :func:`code_lines`
with ``tokenize``: lines holding a token other than a comment, minus the
module docstrings, and also minus every docstring.  Run as a script, this
file prints both numbers for each module of ``src/simplexgeo`` and for the
whole package::

    python tests/test_hygiene.py
"""

import ast
import io
import operator
import re
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "simplexgeo"
PERFBENCH = ROOT / "perfbench"
TESTS = ROOT / "tests"


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


def foreign_private_names(sources: dict[str, str]) -> list[str]:
    """Private names (``_x``) that a module of ``sources`` (module name -> source) reads
    from another: imported by ``from .home import _x`` or read as the attribute ``home._x``."""
    found = set()
    for module, source in sources.items():
        others = set(sources) - {module}
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] in others:
                found.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in others:
                found.add(node.attr)
    return sorted(name for name in found if name.startswith("_") and not name.startswith("__"))


def unread_public_names(sources: list[str], readers: list[str]) -> list[str]:
    """Module-level public names that no other top-level statement of the sources
    reads and no reader names: a library name that only unit tests would reach."""
    return _unread(sources, lambda name: not name.startswith("_"), readers)


def _callee(node: ast.expr) -> str | None:
    """The name a call or decorator ends in: ``f`` for ``f(...)``, ``mod.f`` and ``@f``."""
    node = node.func if isinstance(node, ast.Call) else node
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _defaulted_fields(node: ast.ClassDef) -> list[tuple[str, int]]:
    """``(field, position in __init__)`` for each defaulted field of a dataclass body."""
    fields, position = [], 0
    for stmt in node.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        annotation = ast.unparse(stmt.annotation)
        if "ClassVar" in annotation:
            continue
        if isinstance(stmt.value, ast.Call) and _callee(stmt.value) == "field":
            options = {kw.arg: kw.value for kw in stmt.value.keywords}
            if getattr(options.get("init"), "value", True) is False:
                continue
            defaulted = "default" in options or "default_factory" in options
        else:
            defaulted = stmt.value is not None
        if defaulted and "InitVar" not in annotation:
            fields.append((stmt.target.id, position))
        position += 1
    return fields


def _passes(call: ast.Call, param: str, position: int | None) -> bool:
    """Whether a call gives ``param`` by keyword, by position or through ``*args`` / ``**kwargs``."""
    starred = [i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)]
    keywords = {kw.arg for kw in call.keywords}
    return (
        param in keywords
        or None in keywords  # **kwargs
        or (position is not None and position < len(call.args))
        or (position is not None and bool(starred) and starred[0] <= position)
    )


def _calls(callers: list[str], names) -> list[tuple[str, ast.Call]]:
    """``(name, call)`` for each call in the callers whose callee is one of ``names``."""
    return [
        (_callee(call), call)
        for caller in callers
        for call in ast.walk(ast.parse(caller))
        if isinstance(call, ast.Call) and _callee(call) in names
    ]


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
    passed = {
        (name, param)
        for name, call in _calls(callers, defaults)
        for param, position in defaults[name]
        if _passes(call, param, position)
    }
    return sorted(
        f"{name}({param})"
        for name, params in defaults.items()
        for param, _ in params
        if (name, param) not in passed
    )


def unused_field_defaults(sources: list[str], callers: list[str]) -> list[str]:
    """``Class(field)`` for each defaulted field of a public dataclass that every
    constructor call in the callers passes: a default no caller relies on."""
    defaults = {
        node.name: _defaulted_fields(node)
        for source in sources
        for node in ast.parse(source).body
        if isinstance(node, ast.ClassDef)
        and not node.name.startswith("_")
        and any(_callee(d) == "dataclass" for d in node.decorator_list)
    }
    relied_on = {
        (name, field)
        for name, call in _calls(callers, defaults)
        for field, position in defaults[name]
        if not _passes(call, field, position)
    }
    return sorted(
        f"{name}({field})"
        for name, fields in defaults.items()
        for field, _ in fields
        if (name, field) not in relied_on
    )


def discarded_constructions(sources: list[str]) -> list[str]:
    """Statements that call a class defined in the sources and discard the result."""
    trees = [ast.parse(source) for source in sources]
    classes = {node.name for tree in trees for node in tree.body if isinstance(node, ast.ClassDef)}
    return [
        ast.unparse(node)
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call) and _callee(node.value) in classes
    ]


#: Reads of the environment and the wall clock, as ``owner.name``.
_HIDDEN_INPUTS = {
    "os.environ", "os.environb", "os.getenv",
    "time.time", "time.time_ns",
    "datetime.now", "datetime.utcnow", "datetime.today", "date.today",
}


def hidden_inputs(source: str) -> list[str]:
    """Each ``owner.name`` of ``_HIDDEN_INPUTS`` that the source reads as an attribute
    (``os.environ``, ``dt.datetime.now``) or imports (``from os import getenv``)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, (ast.Name, ast.Attribute)):
            owner = getattr(node.value, "id", None) or getattr(node.value, "attr", None)
            found.append(f"{owner}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module:
            found += [f"{node.module.split('.')[-1]}.{alias.name}" for alias in node.names]
    return sorted(name for name in found if name in _HIDDEN_INPUTS)


def numpy_random_uses(source: str) -> list[str]:
    """Each line that names ``numpy.random``: an attribute ``random`` of a name bound
    to numpy, ``import numpy.random[...]`` or ``from numpy[.random...] import``."""
    tree = ast.parse(source)
    numpy_names = {"numpy"} | {
        alias.asname for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name == "numpy" and alias.asname
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "random":
            hit = isinstance(node.value, ast.Name) and node.value.id in numpy_names
        elif isinstance(node, ast.Import):
            hit = any(alias.name.startswith("numpy.random") for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            hit = module.startswith("numpy.random") or (
                module == "numpy" and any(alias.name == "random" for alias in node.names)
            )
        else:
            continue
        if hit:
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return sorted(set(found))


def unused_conftest_functions(conftest: str, tests: list[str]) -> list[str]:
    """Module-level functions of ``conftest`` that nothing uses: a fixture that no function
    of ``conftest`` or ``tests`` takes as a parameter, any other function that no other
    statement of them names."""
    home = ast.parse(conftest).body
    trees = [ast.parse(source) for source in tests]
    functions = [
        node
        for tree in [*trees, *home]
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    unused = []
    for node in home:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if any(_callee(d) == "fixture" for d in node.decorator_list):
            used = any(
                node.name in {a.arg for a in f.args.posonlyargs + f.args.args + f.args.kwonlyargs}
                for f in functions
                if f is not node
            )
        else:
            others = [stmt for stmt in home if stmt is not node] + trees
            used = any(node.name in _named(other) for other in others)
        if not used:
            unused.append(node.name)
    return sorted(unused)


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


_OPERATORS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
}


def _literal(node: ast.expr):
    """Value of a constant, or of constants joined by + - * / ** and unary minus."""
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_literal(node.operand)
    if isinstance(node, ast.BinOp) and type(node.op) in _OPERATORS:
        return _OPERATORS[type(node.op)](_literal(node.left), _literal(node.right))
    raise ValueError(f"not a literal: {ast.unparse(node)}")


#: A constant quoted as ``[simplexgeo.]module.NAME = value`` between backticks.
_QUOTED_CONSTANT = re.compile(r"`(?:simplexgeo\.)?(\w+)\.(\w+) = ([^`]+)`")


def stale_quoted_constants(text: str, modules: dict[str, str]) -> list[str]:
    """Quoted constants of ``text`` whose value is not the one module-level
    assignment of that name in ``modules`` (module name -> source)."""
    stale = []
    for module, name, quoted in _QUOTED_CONSTANT.findall(text):
        assigned = [
            _literal(node.value)
            for node in ast.parse(modules.get(module, "")).body
            if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]
        ]
        if assigned != [_literal(ast.parse(quoted, mode="eval").body)]:
            stale.append(f"{module}.{name} = {quoted}")
    return stale


def stale_command_names(docstring: str, readme: str, commands, csv_commands) -> list[str]:
    """``<place>: missing|unknown <command>`` for each name where the ``Commands``
    block of ``docstring`` or the example block of README's CLI section differs
    from ``commands``, or README's "Only ... write CSV" sentence from ``csv_commands``."""
    doc_block = docstring.split("Commands\n", 1)[-1].split("\n\n", 1)[0]
    cli_block = readme.split("## CLI\n", 1)[-1].split("```sh\n", 1)[-1].split("```", 1)[0]
    sentence = re.search(r"Only (.*?) write CSV", " ".join(readme.split()))
    named = {
        "cli.py docstring": ([line.split()[0] for line in doc_block.splitlines() if line.strip()], commands),
        "README CLI block": (re.findall(r"^simplexgeo ([\w-]+)", cli_block, re.M), commands),
        "README CSV sentence": (re.findall(r"`([\w-]+)`", sentence[1]) if sentence else [], csv_commands),
    }
    return sorted(
        f"{place}: {'missing' if name in table else 'unknown'} {name}"
        for place, (found, table) in named.items()
        for name in set(found) ^ set(table)
    )


def stale_flags(readme: str, options) -> list[str]:
    """``missing|unknown <flag>`` for each ``--flag`` where README's CLI section differs from ``options``."""
    section = readme.split("## CLI\n", 1)[-1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", section))
    return sorted(f"{'missing' if flag in options else 'unknown'} {flag}" for flag in named ^ set(options))


#: Token types that hold no code: comments, line ends and indentation.
_LAYOUT_TOKENS = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_lines(source: str, every: bool) -> set[int]:
    """Lines of the module docstring, and of every class and function docstring if ``every``."""
    tree = ast.parse(source)
    owners = [tree]
    if every:
        kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        owners += [node for node in ast.walk(tree) if isinstance(node, kinds)]
    lines = set()
    for owner in owners:
        first = owner.body[0] if owner.body else None
        if isinstance(first, ast.Expr) and isinstance(getattr(first.value, "value", None), str):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str, every_docstring: bool = False) -> int:
    """Lines holding a non-comment token, minus the module docstring (every docstring if asked)."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT_TOKENS:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(source, every_docstring))


def package_code_lines() -> tuple[int, int]:
    """Code lines of the package: (module docstrings excluded, every docstring excluded)."""
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    return tuple(sum(code_lines(s, every) for s in sources) for every in (False, True))


def test_code_line_counter_on_a_small_source():
    source = '''"""Module
docstring."""
# a comment

def f(x):
    """Function docstring."""
    y = (x +  # trailing comment
         1)
    return """not a
docstring"""

class C:
    """Class
    docstring."""
    z = f"{1}"
'''
    # def, its docstring, the two lines of y, the two of the returned string, class,
    # its two docstring lines and z
    assert code_lines(source) == 10
    assert code_lines(source, every_docstring=True) == 7
    assert code_lines("") == 0


def test_checker_flags_an_unused_import():
    source = "from __future__ import annotations\nimport os\nimport numpy as np\nnp.zeros(1)\n"
    assert unused_imports(source) == ["os"]


def test_checker_flags_an_unread_private_name():
    home = "def _helper():\n    return _helper()\n\n_TABLE = {}\n_orphan = 1\n__all__ = []\n"
    user = "from .home import _helper\n\ndef f():\n    return home._TABLE\n"
    assert unread_private_names([home, user]) == ["_orphan"]
    assert unread_private_names([home]) == ["_TABLE", "_helper", "_orphan"]


def test_checker_flags_a_private_name_read_from_another_module():
    home = "_BLOCK = 1\n\ndef _kernel():\n    return _BLOCK\n\ndef public():\n    return _kernel()\n"
    user = (
        "from . import home\nfrom .home import _kernel, public\nfrom simplexgeo.home import _BLOCK\n"
        "import numpy as np\n\ndef f(obj):\n    return home._step, np._x, obj._cache, home.__doc__\n"
    )
    assert foreign_private_names({"home": home, "user": user}) == ["_BLOCK", "_kernel", "_step"]
    assert foreign_private_names({"home": home + "\nhome._BLOCK\n", "np": "_x = 1\n"}) == []


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


def test_checker_flags_a_dataclass_default_every_caller_overrides():
    home = (
        "@dataclass(frozen=True)\nclass Point:\n    x: float\n    q: float = 2.0\n"
        "    cache: dict = field(init=False, default=None)\n    scale: InitVar[float] = 1.0\n"
        "    tag: str = field(default='')\n    limit: ClassVar[int] = 3\n\n"
        "@dataclasses.dataclass\nclass Box:\n    size: int = field(default_factory=int)\n\n"
        "class Plain:\n    size: int = 1\n\n"
        "@dataclass\nclass _Hidden:\n    size: int = 1\n"
    )
    assert unused_field_defaults([home], []) == ["Box(size)", "Point(q)", "Point(tag)"]
    script = "Point(1.0, 3.0)\nmod.Box(size=2)\nPlain()\n_Hidden()\n"
    assert unused_field_defaults([home], [script]) == ["Box(size)", "Point(q)"]
    assert unused_field_defaults([home], ["Point(1.0, 2.0, 0.5, 'a')\nPoint(0.0)\nBox()\n"]) == []


def test_checker_flags_a_class_built_only_to_raise():
    home = (
        "class Point:\n    pass\n\n"
        "def f(x):\n    if x:\n        Point(x)\n    p = Point(x)\n    print(Point(x))\n"
        "    raise Point(x)\n"
    )
    user = "def g(x):\n    mod.Point(x)\n    return Point(x)\n"
    assert discarded_constructions([home, user]) == ["Point(x)", "mod.Point(x)"]
    assert discarded_constructions([user]) == []


def test_checker_flags_a_stale_quoted_constant():
    modules = {"core": "_BLOCK = 2**14\nSTEP = 1e-5\nSTEP2 = STEP * 2\n", "flows": "TOL = -1e-12\n"}
    text = (
        "blocks of `core._BLOCK = 16384`, a step `simplexgeo.core.STEP = 1e-5`, "
        "`flows.TOL = -1e-12`, `core.STEP = 1e-4`, `core.GONE = 1`, `other.X = 1`, "
        "`core._BLOCK` and `f(x) = y`"
    )
    assert stale_quoted_constants(text, modules) == ["core.STEP = 1e-4", "core.GONE = 1", "other.X = 1"]
    with pytest.raises(ValueError, match="not a literal: STEP"):
        stale_quoted_constants("`core.STEP2 = 2e-5`", modules)


def test_checker_flags_an_unused_conftest_function():
    conftest = (
        "@pytest.fixture\ndef rng():\n    return 1\n\n"
        "@pytest.fixture(scope='module')\ndef unused():\n    return 2\n\n"
        "@pytest.fixture\ndef derived(rng):\n    return rng\n\n"
        "def helper(x):\n    return x\n\n"
        "def orphan():\n    return orphan\n"
    )
    test = "from conftest import helper\n\ndef test_a(derived):\n    assert helper(derived)\n\n"
    test += "def test_b(orphan):\n    pass\n"
    assert unused_conftest_functions(conftest, [test]) == ["orphan", "unused"]
    assert unused_conftest_functions(conftest, []) == ["derived", "helper", "orphan", "unused"]


def test_checker_flags_an_environment_or_clock_read():
    source = (
        "import datetime as dt\nimport os\nimport time\nfrom os import getenv, path\n\n"
        "def f(stamp):\n    seed = os.environ.get('SEED')\n    now = dt.datetime.now()\n"
        "    day = dt.date.today()\n    ns = time.time_ns()\n"
        "    return time.perf_counter(), os.path.join('a'), stamp.time, stamp.today\n"
    )
    assert hidden_inputs(source) == ["date.today", "datetime.now", "os.environ", "os.getenv", "time.time_ns"]
    assert hidden_inputs("from time import time\nfrom datetime import datetime\n") == ["time.time"]


def test_checker_flags_a_numpy_random_use():
    source = (
        "import numpy as np\nimport numpy as xp\nimport numpy.random\n"
        "from numpy import random as npr, zeros\nfrom numpy.random import default_rng\n\n"
        "def f(other, random):\n    g = np.random.default_rng(0)\n    return xp.random, np.zeros(3), other.random, random\n"
    )
    assert numpy_random_uses(source) == [
        "line 3: import numpy.random", "line 4: from numpy import random as npr, zeros",
        "line 5: from numpy.random import default_rng", "line 8: np.random", "line 9: xp.random",
    ]
    assert numpy_random_uses("import numpy as np\nx = np.zeros(3)\nrandom = 1\n") == []


def test_checker_flags_a_command_the_docs_miss():
    docstring = "Tool.\n\nCommands\n    run    do it\n    stop   halt\n\nExit status 0.\n"
    readme = (
        "## CLI\n\n```sh\nsimplexgeo run --dim 4 \\\n    --out a.csv\nsimplexgeo stop\n```\n\n"
        "Only `run` and\n`stop` write CSV; `--format csv` on `go` is rejected.\n"
    )
    assert stale_command_names(docstring, readme, ["run", "stop"], ["run", "stop"]) == []
    assert stale_command_names(docstring, readme, ["run", "stop", "go"], ["run"]) == [
        "README CLI block: missing go", "README CSV sentence: unknown stop", "cli.py docstring: missing go",
    ]
    assert stale_command_names("", "", ["run"], ["run"]) == [
        "README CLI block: missing run", "README CSV sentence: missing run", "cli.py docstring: missing run",
    ]


def test_checker_flags_a_flag_the_parser_lacks():
    readme = (
        "## CLI\n\n```sh\ntool run --dim 4 --out-dir x\n```\n\n`--seed` is optional; "
        "--dry-run too.\n\n## Next\n\n`--elsewhere`\n"
    )
    options = ["--dim", "--out-dir", "--seed", "--dry-run"]
    assert stale_flags(readme, options) == []
    assert stale_flags(readme, ["--dim", "--seed", "--dry-run", "--q"]) == ["missing --q", "unknown --out-dir"]
    assert stale_flags("", ["--dim"]) == ["missing --dim"]


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


def test_private_names_stay_in_their_module():
    modules = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert foreign_private_names(modules) == ["_SOFTMAX_BLOCK", "_read_only", "_require_finite"]


def test_every_public_name_has_a_caller_besides_unit_tests():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    readers = [(ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")]
    assert unread_public_names(sources, readers) == []


def _package_and_callers() -> tuple[list[str], list[str]]:
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    callers = sources + [(ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")]
    callers += [p.read_text(encoding="utf-8") for p in sorted(PERFBENCH.glob("*.py"))]
    return sources, callers


def test_every_default_is_passed_by_a_caller_besides_unit_tests():
    assert unpassed_defaults(*_package_and_callers()) == []


def test_every_dataclass_default_is_used_by_a_caller_besides_unit_tests():
    assert unused_field_defaults(*_package_and_callers()) == []


def test_no_class_is_built_only_to_raise():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert discarded_constructions(sources) == []


def test_no_package_statement_reads_the_environment_or_the_clock():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert [name for source in sources for name in hidden_inputs(source)] == []


def test_no_package_statement_names_numpy_random():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: numpy_random_uses(source) for name, source in sources.items() if numpy_random_uses(source)} == {}


def test_readme_quotes_every_constant_at_its_value():
    modules = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    quoted = {name for _, name, _ in _QUOTED_CONSTANT.findall(readme)}
    assert {"_SOFTMAX_BLOCK", "_LENGTH_BLOCK", "_STACK_BLOCK", "FIELD_STEP"} <= quoted
    assert stale_quoted_constants(readme, modules) == []


def test_docs_name_every_command_of_the_table():
    from simplexgeo import cli

    commands = list(cli._COMMANDS)
    csv_commands = [name for name, command in cli._COMMANDS.items() if command.csv]
    assert csv_commands  # the sentence's rule is not vacuous
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert stale_command_names(cli.__doc__, readme, commands, csv_commands) == []


def test_readme_names_every_option_of_the_parser():
    from simplexgeo import cli

    parser = cli._build_parser()
    (commands,) = [action.choices for action in parser._actions if action.choices]
    options = {
        option
        for command in commands.values()
        for action in command._actions
        for option in action.option_strings
    } - {"-h", "--help"}
    assert len(options) == 13
    assert stale_flags((ROOT / "README.md").read_text(encoding="utf-8"), options) == []


def test_every_conftest_function_is_used_by_a_test():
    tests = [p.read_text(encoding="utf-8") for p in sorted(TESTS.glob("*.py")) if p.name != "conftest.py"]
    assert unused_conftest_functions((TESTS / "conftest.py").read_text(encoding="utf-8"), tests) == []


def test_package_namespace_binds_only_modules():
    assert namespace_violations((PACKAGE / "__init__.py").read_text(encoding="utf-8")) == []


if __name__ == "__main__":
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines, bare = code_lines(source), code_lines(source, every_docstring=True)
        print(f"{path.name}: {lines:,} code lines, module docstring excluded; {bare:,}, every docstring excluded")
    module_docstrings, every_docstring = package_code_lines()
    print(f"{module_docstrings:,} code lines in src/simplexgeo, module docstrings excluded")
    print(f"{every_docstring:,} code lines in src/simplexgeo, every docstring excluded")
