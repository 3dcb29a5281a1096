"""SimplexPoint, TangentVector and make_tangent reject exactly what the element-wise checks rejected.

The constructors decide the common case from the sum they compute anyway
(a finite float64 sum has finite terms; with a positive minimum all terms
are positive).  The references below are the element-wise checks in their
original order; every input must give the same result or the same
exception type and message.
"""

import math

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from simplexgeo.errors import (
    DimensionTooSmall,
    LengthMismatch,
    NonFiniteInput,
    NonPositiveCoordinate,
    NotNormalizable,
)
from simplexgeo.sequence_core import SimplexPoint, TangentVector, make_tangent

SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1e308, -1e308, 5e-324, 1e-300]
BASE = SimplexPoint(np.array([0.1, 0.2, 0.3, 0.4]))


def reference_simplex_point(coords, tail_bound):
    a = np.asarray(coords, dtype=float)
    if a.ndim != 1:
        raise DimensionTooSmall("coords must be a one-dimensional vector")
    if a.size < 2:
        raise DimensionTooSmall(f"need at least 2 coordinates, got {a.size}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteInput("coordinate vector contains NaN or infinity")
    if not np.all(a > 0.0):
        raise NonPositiveCoordinate("simplex coordinates must be strictly positive")
    if not (tail_bound >= 0.0 and math.isfinite(tail_bound)):
        raise NotNormalizable(f"tail bound must be finite and >= 0, got {tail_bound}")
    tol = 1e-12 * a.size
    s = float(a.sum())
    if tail_bound == 0.0:
        if abs(s - 1.0) > tol:
            raise NotNormalizable(f"coordinates sum to {s}, expected 1")
    elif not (1.0 - tail_bound - tol <= s <= 1.0 + tol):
        raise NotNormalizable(f"coordinates sum to {s}, outside [1 - {tail_bound}, 1]")
    return a


def reference_tangent(base, comps):
    a = np.asarray(comps, dtype=float)
    if a.ndim != 1:
        raise DimensionTooSmall("components must be a one-dimensional vector")
    if a.size != base.dim:
        raise LengthMismatch(f"components have length {a.size}, base has {base.dim}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteInput("component vector contains NaN or infinity")
    if abs(float(a.sum())) > 1e-12 * a.size:
        raise NotNormalizable(f"tangent components sum to {a.sum()}, expected 0")
    return a


def reference_make_tangent(base, raw):
    a = np.asarray(raw, dtype=float)
    if a.size != base.dim:
        raise LengthMismatch(f"raw vector has length {a.size}, base has dim {base.dim}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteInput("raw vector contains NaN or infinity")
    tol = 1e-12 * a.size
    if abs(float(a.sum())) <= tol:
        return reference_tangent(base, a)
    comps = a - a.sum() / a.size
    for _ in range(4):
        if abs(float(comps.sum())) <= tol:
            break
        comps = comps - comps.sum() / comps.size
    return reference_tangent(base, comps)


def outcome(fn, *args):
    """The array a call returns, or the type and message of what it raises."""
    with np.errstate(all="ignore"):
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 - the exception is the result compared
            return type(exc), str(exc)


def assert_same(got, want):
    if isinstance(want, tuple):
        assert got == want
    else:
        assert not isinstance(got, tuple), got
        assert got.shape == want.shape and np.array_equal(got, want, equal_nan=True)


def entries(size):
    value = st.one_of(st.sampled_from(SPECIAL), st.floats(-2.0, 2.0), st.floats(0.0, 1.0))
    return st.lists(value, min_size=size, max_size=size)


@st.composite
def vectors(draw, sizes=st.integers(0, 6)):
    """Vectors with special entries, shaped 1-D or otherwise, often normalized or centred."""
    a = np.array(draw(entries(draw(sizes))), dtype=float)
    fix = draw(st.sampled_from(["none", "unit", "centre"]))
    with np.errstate(all="ignore"):
        if fix == "unit" and a.size:
            a = np.abs(a) / np.abs(a).sum()
        elif fix == "centre" and a.size:
            a = a - a.sum() / a.size
    shape = draw(st.sampled_from(["flat", "column", "scalar"]))
    if shape == "column" and a.size % 2 == 0 and a.size:
        a = a.reshape(2, -1)
    elif shape == "scalar" and a.size == 1:
        a = a.reshape(())
    return a


TAIL_BOUNDS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-3, 0.5, -1e-3, math.nan, math.inf, -math.inf]),
    st.floats(0.0, 1.0),
)


@given(coords=vectors(), tail_bound=TAIL_BOUNDS)
@example(coords=np.array([1e308, 1e308]), tail_bound=0.0).via("finite entries, overflowing sum")
@example(coords=np.array([math.inf, -math.inf]), tail_bound=0.0).via("mixed infinities")
@example(coords=np.array([0.5, -0.0, 0.5]), tail_bound=0.0).via("negative zero")
@example(coords=np.array([0.5, 0.5]), tail_bound=math.nan).via("NaN tail bound")
@example(coords=np.array([0.5, 0.5 + 1.5e-12]), tail_bound=0.0).via("sum just inside 1 + 2e-12")
@example(coords=np.array([0.5, 0.5 + 3e-12]), tail_bound=0.0).via("sum just outside 1 + 2e-12")
@example(coords=np.array([0.25, 0.25 - 1e-12]), tail_bound=0.5).via("sum just inside 0.5 - 2e-12")
@example(coords=np.array([0.25, 0.25 - 3e-12]), tail_bound=0.5).via("sum just outside 0.5 - 2e-12")
def test_simplex_point_matches_elementwise_checks(coords, tail_bound):
    got = outcome(lambda: SimplexPoint(coords, tail_bound=tail_bound).coords)
    assert_same(got, outcome(reference_simplex_point, coords, tail_bound))


@given(comps=vectors(sizes=st.integers(3, 5)))
@example(comps=np.array([1e308, 1e308, -1e308, -1e308])).via("overflowing partial sums")
@example(comps=np.array([math.inf, -math.inf, 0.0, 0.0])).via("mixed infinities")
@example(comps=np.array([math.nan, 0.0, 0.0, 0.0])).via("NaN")
@example(comps=np.array([[0.1, -0.1], [0.05, -0.05]])).via("zero-sum block of the base's size")
@example(comps=np.array([1.0, -1.0, 0.0, 3e-12])).via("sum just inside 4e-12")
@example(comps=np.array([1.0, -1.0, 0.0, 5e-12])).via("sum just outside 4e-12")
def test_tangent_vector_matches_elementwise_checks(comps):
    got = outcome(lambda: TangentVector(BASE, comps).comps)
    assert_same(got, outcome(reference_tangent, BASE, comps))


@given(raw=vectors(sizes=st.integers(3, 5)))
@example(raw=np.array([1e308, 1e308, 1e308, 1e308])).via("finite entries, overflowing sum")
@example(raw=np.array([math.inf, -math.inf, 0.0, 0.0])).via("mixed infinities")
@example(raw=np.array([0.3, -0.1, 0.2, 1.0])).via("projected")
def test_make_tangent_matches_elementwise_checks(raw):
    got = outcome(lambda: make_tangent(BASE, raw).comps)
    assert_same(got, outcome(reference_make_tangent, BASE, raw))
