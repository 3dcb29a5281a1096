"""The softmax row kernels against the per-t scalar path they replace.

``softmax_rows`` must give, row for row, the bits of ``softmax_curve``;
``e_geodesic_residual_rows`` must give the bits of the geodesic's rows and
of ``float(np.abs(e_connection_residual(geo, t)).sum())``, and raise
exactly what a loop that builds every row before any residual raises.
"""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simplexgeo import connections, sequence_core
from simplexgeo.cli import main
from simplexgeo.connections import EGeodesic, e_connection_residual, e_geodesic_residual_rows
from simplexgeo.errors import CurveDomain, NonFiniteInput
from simplexgeo.sequence_core import (
    SimplexPoint,
    softmax_coords,
    softmax_curve,
    softmax_rows,
)

P0_KINDS = ("gamma", "geometric", "uniform")
A_KINDS = ("normal", "integers", "zero")


def start_point(kind, dim, rng, ratio):
    """A gamma draw, a geometric point flushed at TINY (ratio down to 0.01) or the uniform point."""
    if kind == "gamma":
        return SimplexPoint(softmax_coords(np.log(rng.gamma(2.0, size=dim))))
    if kind == "geometric":
        return SimplexPoint(softmax_coords(np.arange(dim) * np.log(ratio)))
    return SimplexPoint(np.full(dim, 1.0 / dim))


def exponents(kind, dim, rng):
    """Exponents of order one; rounded to integers they tie, and zero gives constant rows."""
    if kind == "zero":
        return np.zeros(dim)
    a = rng.standard_normal(dim) * 3.0
    return np.round(a) if kind == "integers" else a


def outcome(fn):
    """Either ("ok", values...) or ("raise", error type, message)."""
    try:
        return ("ok", *fn())
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return ("raise", type(exc), str(exc))


def same(a, b):
    if a[0] != b[0]:
        return False
    if a[0] == "raise":
        return a == b
    return all(np.array_equal(x, y) for x, y in zip(a[1:], b[1:]))


def scalar_rows(p0, a, times):
    return (np.array([softmax_curve(p0, a, t).coords for t in times]),)


def scalar_geodesic(geo, times):
    """Every row first, then every residual, in time order: the per-t reference."""
    rows = np.array([geo(t).coords for t in times])
    residuals = np.array([float(np.abs(e_connection_residual(geo, t)).sum()) for t in times])
    return rows, residuals


@settings(max_examples=60)
@given(
    dim=st.integers(2, 300),
    seed=st.integers(0, 2**32 - 1),
    p0_kind=st.sampled_from(P0_KINDS),
    ratio=st.floats(0.01, 0.99),
    a_kind=st.sampled_from(A_KINDS),
    t_scale=st.sampled_from([1e-3, 1.0, 10.0, 1e3, 1e6]),
    rows=st.integers(1, 40),
    block=st.sampled_from([None, 1, 2**9]),
)
@example(dim=300, seed=0, p0_kind="gamma", ratio=0.5, a_kind="normal", t_scale=10.0,
         rows=500, block=None).via("crosses the default block bound twice")
@example(dim=64, seed=1, p0_kind="uniform", ratio=0.5, a_kind="integers", t_scale=1.0,
         rows=40, block=None).via("tied coordinates")
@example(dim=100, seed=2, p0_kind="geometric", ratio=0.01, a_kind="normal", t_scale=1e6,
         rows=40, block=None).via("coordinates flushed to TINY at |t| = 1e6")
def test_softmax_rows_bitwise_equal_softmax_curve(
    dim, seed, p0_kind, ratio, a_kind, t_scale, rows, block
):
    rng = np.random.default_rng(seed)
    p0 = start_point(p0_kind, dim, rng, ratio)
    a = exponents(a_kind, dim, rng)
    times = np.sort(rng.uniform(-t_scale, t_scale, size=rows))
    want = outcome(lambda: scalar_rows(p0, a, times))
    if block is None:
        got = outcome(lambda: (softmax_rows(p0, a, times),))
    else:
        with mock.patch.object(sequence_core, "_SOFTMAX_BLOCK", block):
            got = outcome(lambda: (softmax_rows(p0, a, times),))
    assert want[0] == "ok"
    assert same(got, want)


def test_rows_that_miss_one_are_bitwise_too():
    # Gamma points at N = 64 leave about a third of the rows with a sum off 1.0;
    # check that the test grid really exercises the fix-up, then compare.
    rng = np.random.default_rng(5)
    p0 = start_point("gamma", 64, rng, None)
    a = exponents("normal", 64, rng)
    times = np.linspace(-10.0, 10.0, 2001)
    log_w = np.log(p0.coords) + a * times[:, None]
    w = np.exp(log_w - log_w.max(axis=1, keepdims=True))
    raw = np.maximum(w / w.sum(axis=1, keepdims=True), sequence_core.TINY)
    assert (raw.sum(axis=1) != 1.0).sum() > 200
    assert np.array_equal(softmax_rows(p0, a, times), scalar_rows(p0, a, times)[0])


@settings(max_examples=40)
@given(
    dim=st.integers(2, 300),
    seed=st.integers(0, 2**32 - 1),
    p0_kind=st.sampled_from(P0_KINDS),
    ratio=st.floats(0.01, 0.99),
    speed=st.sampled_from([0.1, 0.5, 3.0, 1e6]),
    t_scale=st.sampled_from([1e-3, 1.0, 10.0, 1e3]),
    rows=st.integers(1, 25),
    block=st.sampled_from([None, 1, 2**10]),
)
@example(dim=3, seed=0, p0_kind="uniform", ratio=0.5, speed=1e6, t_scale=1.0, rows=3,
         block=None).via("a velocity ratio that overflows")
def test_residual_rows_bitwise_equal_scalar_residual(
    dim, seed, p0_kind, ratio, speed, t_scale, rows, block
):
    rng = np.random.default_rng(seed)
    p0 = start_point(p0_kind, dim, rng, ratio)
    a = rng.standard_normal(dim) * speed
    geo = EGeodesic(p0, a - float(np.dot(p0.coords, a)))
    times = np.unique(np.round(rng.uniform(-t_scale, t_scale, size=rows), 6))
    want = outcome(lambda: scalar_geodesic(geo, times))
    if block is None:
        got = outcome(lambda: e_geodesic_residual_rows(geo, times))
    else:
        with mock.patch.object(sequence_core, "_SOFTMAX_BLOCK", block), \
                mock.patch.object(connections, "_SOFTMAX_BLOCK", block):
            got = outcome(lambda: e_geodesic_residual_rows(geo, times))
    assert same(got, want)


def test_overflowing_velocity_raises_the_scalar_error(recwarn):
    # The 1e6-scaled velocity of the CLI test: the residual at t = 0 is not finite.
    p0 = SimplexPoint(np.full(3, 1.0 / 3.0))
    geo = EGeodesic(p0, np.array([3e6, -1.5e6, -1.5e6]))
    with pytest.raises(CurveDomain, match=r"^e-connection derivative is not finite at t = 0\.0$"):
        e_geodesic_residual_rows(geo, np.array([0.0, 0.5, 1.0]))
    assert not recwarn.list


def warned(fn):
    """The outcome of fn and every warning it shows, with the line that showed it."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = outcome(fn)
    return result, [(w.filename, w.lineno, str(w.message)) for w in caught]


def test_overflowing_time_raises_and_warns_as_the_scalar_path():
    # a t overflows to inf at t = 1e10, so that row fails before any residual is read;
    # numpy's overflow warning comes from the scalar replay alone, as it did before.
    p0 = SimplexPoint(np.full(2, 0.5))
    geo = EGeodesic(p0, np.array([2e300, -2e300]))
    times = np.array([0.0, 1.0, 1e10])
    want = warned(lambda: scalar_geodesic(geo, times))
    assert want[0] == ("raise", NonFiniteInput, "log-weight vector contains NaN or infinity")
    assert len(want[1]) == 1 and "overflow" in want[1][0][2]
    assert warned(lambda: (softmax_rows(p0, geo.a, times),)) == want
    assert warned(lambda: e_geodesic_residual_rows(geo, times)) == want


def test_non_finite_time_raises_the_scalar_error():
    p0 = SimplexPoint(np.full(4, 0.25))
    with pytest.raises(NonFiniteInput, match=r"^time nan is not finite$"):
        softmax_rows(p0, np.array([1.0, 0.0, -0.5, -0.5]), np.array([0.0, np.nan]))


@pytest.mark.parametrize(
    "argv, line",
    [
        (["--v0", "explicit:1e6,-5e5,-5e5", "--t-max", "1", "--dt", "0.5"],
         "error in simplexgeo.connections.e_covariant_along_curve: "
         "e-connection derivative is not finite at t = 0.0"),
        (["--v0", "explicit:1e300,-1e300,0", "--t-max", "1e9", "--dt", "1e8"],
         "error in simplexgeo.sequence_core._require_finite: "
         "log-weight vector contains NaN or infinity"),
    ],
    ids=["residual-overflows", "row-overflows"],
)
@pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")
def test_geodesic_command_blames_the_scalar_frame(tmp_path, capsys, argv, line):
    out = tmp_path / "geo.csv"
    code = main(["geodesic", "--dim", "3", "--p0", "uniform", *argv, "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"geodesic dim=3 {line}\n"
    assert not out.exists()
