"""Extreme but legal inputs, run in process through ``cli.main``.

Every run must end in one of three ways: exit 0 or 1 with its status
line, exit 1 with one typed ``error in`` line, or exit 2 with one
``config error:`` line.  No run may print a traceback or raise a warning
(numpy's overflow warnings included), and no file it writes may hold a
NaN or an infinity; the one ``nan`` allowed is the missing objective
column of a geodesic CSV without ``--c``.
"""

import contextlib
import io
import json
import math
import os
import re
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from simplexgeo.cli import main

BIG = 1.7976931348623157e308
DIMS = st.integers(2, 16)
HUGE = st.floats(1e300, BIG) | st.floats(-BIG, -1e300) | st.sampled_from([1e308, -1e308, BIG, -BIG])
MODERATE = st.floats(-10.0, 10.0)
TIED = st.sampled_from([1.0, 1.0 - 1e-9, 1.0 + 1e-12, 0.0, -1.0])
POINT = st.just("uniform") | st.floats(0.01, 0.99).map(lambda r: f"geometric:{r!r}")


def coefficients(n: int, base=MODERATE):
    """n values of ``base``, or of ``base`` mixed with huge ones, or one huge value n times."""
    return (st.lists(base, min_size=n, max_size=n)
            | st.lists(base | HUGE, min_size=n, max_size=n)
            | HUGE.map(lambda v: [v] * n))


def explicit(values) -> str:
    return "explicit:" + ",".join(map(repr, values))


@st.composite
def grids(draw) -> list[str]:
    """A horizon up to 1e6 cut into at most 20 steps."""
    t_max = draw(st.floats(1e-3, 1e6))
    dt = t_max / draw(st.integers(1, 20))
    return ["--t-max", repr(t_max), "--dt", repr(dt)]


@st.composite
def flows(draw) -> list[str]:
    n = draw(DIMS)
    c = draw(coefficients(n).map(explicit) | POINT)
    return ["flow", "--dim", str(n), "--c", c, "--p0", draw(POINT), *draw(grids()),
            "--method", draw(st.sampled_from(["closed", "rk4"])),
            "--format", draw(st.sampled_from(["csv", "json"]))]


@st.composite
def lps(draw) -> list[str]:
    n = draw(DIMS)
    c = draw(coefficients(n, TIED | MODERATE))
    return ["lp", "--dim", str(n), "--c", explicit(c), "--p0", draw(POINT),
            "--tol", repr(draw(st.floats(1e-12, 1e-2))),
            "--format", draw(st.sampled_from(["csv", "json"]))]


@st.composite
def integrabilities(draw) -> list[str]:
    n = draw(DIMS)
    c = draw(coefficients(n))
    return ["integrability", "--dim", str(n), "--c", explicit(c),
            "--seed", str(draw(st.integers(0, 3)))]


@st.composite
def geodesics(draw) -> list[str]:
    n = draw(DIMS)
    v0 = draw(st.lists(st.floats(-1e300, 1e300), min_size=n, max_size=n))
    argv = ["geodesic", "--dim", str(n), "--p0", draw(POINT), "--v0", explicit(v0),
            *draw(grids()), "--format", draw(st.sampled_from(["csv", "json"]))]
    if draw(st.booleans()):
        argv += ["--c", draw(POINT)]
    return argv


def reject_constant(token):
    raise AssertionError(f"non-finite JSON token {token}")


def assert_finite_file(path: str, argv: list[str]) -> None:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json"):
        json.loads(text, parse_constant=reject_constant)
        return
    no_objective = "--c" not in argv
    for line in text.splitlines()[1:]:
        cells = line.split(",")
        if no_objective:
            assert cells.pop(-2) == "nan"
        assert all(math.isfinite(float(cell)) for cell in cells), line


def assert_clean_run(argv: list[str], directory: str) -> None:
    name = "out." + argv[argv.index("--format") + 1] if "--format" in argv else "out.json"
    out_path = os.path.join(directory, name)
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([*argv, "--out", out_path, "--no-timestamp"])
    out, err = stdout.getvalue(), stderr.getvalue()
    assert [str(w.message) for w in caught] == []
    assert "Traceback" not in out + err
    head = re.escape(f"{argv[0]} dim={argv[2]} ")
    if code == 2:
        assert out == "" and re.fullmatch(r"config error: [^\n]*\n", err), err
        assert os.listdir(directory) == []
    elif err:
        assert code == 1 and out == "", (code, out)
        assert re.fullmatch(head + r"error in simplexgeo\.\w+\.\w+: [^\n]*\n", err), err
        assert os.listdir(directory) == []
    else:
        assert re.fullmatch(head + r"[^\n]* (pass|FAIL)\n", out), out
        assert code == (0 if out.endswith("pass\n") else 1)
        assert os.listdir(directory) == [name]
        assert_finite_file(out_path, argv)


FLOW_SPAN = ["flow", "--dim", "2", "--c", "explicit:1e308,-1e308", "--p0", "uniform",
             "--t-max", "1", "--dt", "0.5", "--method", "closed", "--format", "csv"]
FLOW_OVERFLOW = ["flow", "--dim", "2", "--c", "explicit:1e300,-1e300", "--p0", "uniform",
                 "--t-max", "1e9", "--dt", "1e8", "--method", "closed", "--format", "csv"]
LP_GAP = ["lp", "--dim", "3", "--c", "explicit:1e308,-1e308,0", "--p0", "uniform",
          "--tol", "1e-8", "--format", "json"]
FLOW_DOT = ["flow", "--dim", "12", "--c", explicit([-BIG] * 12), "--p0", "uniform",
            "--t-max", "1e-3", "--dt", "1e-4", "--method", "closed", "--format", "csv"]
INTEGRABILITY_PHASE = ["integrability", "--dim", "3", "--c", "explicit:1e308,1e307,1",
                       "--seed", "1"]


@settings(max_examples=200)
@given(argv=st.one_of(flows(), lps(), integrabilities(), geodesics()))
@example(argv=FLOW_SPAN)
@example(argv=FLOW_OVERFLOW)
@example(argv=LP_GAP)
@example(argv=FLOW_DOT)
@example(argv=INTEGRABILITY_PHASE)
def test_extreme_input_ends_cleanly(tmp_path_factory, argv):
    assert_clean_run(argv, str(tmp_path_factory.mktemp("run")))
