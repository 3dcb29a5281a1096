"""The array RK4 oracle against the point-per-stage loop it replaces.

``integrate_rk4`` runs its stages on plain arrays and holds each stage
point to ``check_simplex``, which raises the typed error a ``SimplexPoint``
would.  ``reference_rk4`` below is the loop that built one of each per
stage; the two must give the same bits for every row, drift and objective
value, or raise the same error type with the same message.  The same holds
for ``gradient_field`` against ``make_tangent`` on the raw field, and for
the membership checks against the constructors that call them.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simplexgeo.errors import NonFiniteInput, NonPositiveCoordinate, PositivityLost
from simplexgeo.flows import LinearObjective, Trajectory, gradient_field, integrate_rk4, time_grid
from simplexgeo.sequence_core import (
    SequenceSpec,
    SimplexPoint,
    TangentVector,
    check_simplex,
    check_zero_sum,
    make_simplex_point,
    make_tangent,
    membership_tol,
    project_zero_sum,
    zero_sum_rows,
)

BIG = 1.7976931348623157e308


def reference_field(obj, p):
    """The ascent field as a validated tangent, as the point-per-stage loop took it."""
    w = p.coords * obj.c - float(np.dot(obj.c, p.coords)) * p.coords
    return make_tangent(p, w)


def reference_rk4(obj, p0, t_max, dt):
    """Fixed-step RK4 that builds a SimplexPoint per stage and a TangentVector per field."""
    times = time_grid(t_max, dt)
    tail = p0.tail_bound
    point = p0
    rows = np.empty((times.size, p0.dim))
    rows[0] = p0.coords
    drifts = np.zeros(times.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, times.size):
            coords = point.coords
            try:
                k1 = reference_field(obj, point).comps
                k2 = reference_field(obj, SimplexPoint(coords + 0.5 * dt * k1, tail_bound=tail)).comps
                k3 = reference_field(obj, SimplexPoint(coords + 0.5 * dt * k2, tail_bound=tail)).comps
                k4 = reference_field(obj, SimplexPoint(coords + dt * k3, tail_bound=tail)).comps
            except NonPositiveCoordinate as exc:
                raise PositivityLost("an RK4 stage left the open simplex; shrink dt") from exc
            coords = coords + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            s = float(coords.sum())
            drifts[i] = abs(1.0 - s)
            coords = coords / s
            if not (coords > 0.0).all():
                raise PositivityLost("an RK4 step left the open simplex; shrink dt")
            point = SimplexPoint(coords, tail_bound=tail)
            rows[i] = point.coords
    return Trajectory(times, rows, obj, drifts)


def outcome(fn):
    """Either ("ok", value) or ("raise", error type, message)."""
    try:
        return ("ok", fn())
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return ("raise", type(exc), str(exc))


def bits(a):
    return np.asarray(a, dtype=float).tobytes()


def same_trajectory(a, b):
    if a[0] != b[0]:
        return False
    if a[0] == "raise":
        return a[1:] == b[1:]
    ta, tb = a[1], b[1]
    return all(bits(getattr(ta, f)) == bits(getattr(tb, f))
               for f in ("times", "coords", "residual_l1", "objective"))


HUGE = st.floats(1e300, BIG) | st.floats(-BIG, -1e300)
MODERATE = st.floats(-3.0, 3.0)


@st.composite
def coefficients(draw, n):
    """Moderate values, tied values, values near the float range, or a mix."""
    kind = draw(st.sampled_from(["moderate", "moderate", "tied", "huge", "mixed"]))
    if kind == "tied":
        values = draw(st.lists(st.sampled_from([1.0, 1.0, 0.0, -1.0 + 1e-12]), min_size=n, max_size=n))
    elif kind == "huge":
        values = draw(st.lists(HUGE, min_size=n, max_size=n))
    elif kind == "mixed":
        values = draw(st.lists(MODERATE | HUGE, min_size=n, max_size=n))
    else:
        values = draw(st.lists(MODERATE, min_size=n, max_size=n))
    return LinearObjective(np.array(values))


@st.composite
def start_points(draw, n):
    """Exact points (uniform, normalized geometric, a gamma draw) or a tail-bounded geometric one."""
    kind = draw(st.sampled_from(["uniform", "geometric", "lossy", "gamma"]))
    ratio = draw(st.floats(0.05, 0.95))
    if kind == "uniform":
        return make_simplex_point(SequenceSpec("uniform", n))
    if kind == "gamma":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        g = rng.gamma(2.0, size=n)
        return SimplexPoint(g / g.sum())
    normalize = "none" if kind == "lossy" else "simplex"
    return make_simplex_point(SequenceSpec("geometric", n, ratio=ratio, normalize=normalize))


@st.composite
def problems(draw):
    """An objective, a start point, a step from 1e-3 up to sizes that lose positivity, and up to 30 steps."""
    n = draw(st.integers(2, 64))
    dt = 10.0 ** draw(st.floats(-3.0, 0.5))
    steps = draw(st.integers(1, 30))
    return draw(coefficients(n)), draw(start_points(n)), steps * dt, dt


def uniform(n):
    return make_simplex_point(SequenceSpec("uniform", n))


@settings(max_examples=300)
@given(problem=problems())
@example(problem=(LinearObjective(np.array([1e300, -1e300])), uniform(2), 1e10, 1e9))
@example(problem=(LinearObjective(np.array([1e300, -1e300])), uniform(2), 1.0, 0.5))
@example(problem=(LinearObjective(np.array([1e308, -1e308, 0.0])), uniform(3), 1.0, 0.5))
@example(problem=(LinearObjective(np.array([50.0, 0.0])), uniform(2), 5.0, 1.0))
@example(problem=(LinearObjective(np.ones(8)), uniform(8), 2.0, 1e-3))
# k1 passes the rule, but a later field still fails it after projection and must raise.
@example(problem=(LinearObjective(np.array([2.1246299228330237e307, 0.8541273971239858, 0.6541594752677903])),
                  SimplexPoint(np.array([0.29661681201655127, 0.2826160537906541, 0.42076713419279477])),
                  2 * 4.094276386778016e-308, 4.094276386778016e-308))
def test_array_rk4_matches_the_point_per_stage_loop(problem):
    obj, p0, t_max, dt = problem
    expect = outcome(lambda: reference_rk4(obj, p0, t_max, dt))
    got = outcome(lambda: integrate_rk4(obj, p0, t_max, dt))
    assert same_trajectory(got, expect), (got[:3], expect[:3])


@pytest.mark.parametrize("n", [8, 16, 64])
def test_array_rk4_matches_the_point_per_stage_loop_on_the_check_flows_problem(n):
    # The oracle run of checks.check_flows at full length (2000 steps), which the
    # hypothesis test's 30 steps do not reach, on every platform.
    obj = LinearObjective(np.array([1.0, 0.0] + [-(k + 1.0) for k in range(n - 2)]))
    expect = outcome(lambda: reference_rk4(obj, uniform(n), 2.0, 1e-3))
    got = outcome(lambda: integrate_rk4(obj, uniform(n), 2.0, 1e-3))
    assert expect[0] == "ok" and same_trajectory(got, expect)


@st.composite
def field_inputs(draw):
    n = draw(st.integers(2, 64))
    return draw(coefficients(n)), draw(start_points(n))


@given(inputs=field_inputs())
def test_gradient_field_attached_is_the_raw_field_through_make_tangent(inputs):
    obj, p = inputs
    expect = outcome(lambda: reference_field(obj, p).comps)
    got = outcome(lambda: TangentVector(p, gradient_field(obj, p.coords)).comps)
    if expect[0] == "raise":
        assert got == expect
    else:
        assert got[0] == "ok" and bits(got[1]) == bits(expect[1])
        # An accepted field is zero-sum, so make_tangent attaches it unchanged.
        assert bits(make_tangent(p, gradient_field(obj, p.coords)).comps) == bits(expect[1])


@settings(max_examples=30)
@given(inputs=field_inputs())
def test_gradient_field_raises_a_failing_field_s_error_itself(inputs):
    # Only a projected field can fail the rule, and gradient_field checks those, so a
    # field it returns needs no second sum.
    obj, p = inputs
    expect = outcome(lambda: reference_field(obj, p).comps)
    got = outcome(lambda: gradient_field(obj, p.coords))
    if expect[0] == "raise":
        assert got == expect
    else:
        assert got[0] == "ok" and bits(got[1]) == bits(expect[1])


VECTORS = st.lists(st.floats(allow_nan=True, allow_infinity=True) | st.floats(-2.0, 2.0)
                   | st.sampled_from([0.0, 1e-300, 1e308, -1e308, 0.5]), min_size=0, max_size=20)


def raised(outcome_):
    """An outcome with a check's None result and a constructor's value both read as "ok"."""
    return outcome_ if outcome_[0] == "raise" else ("ok",)


@given(values=VECTORS, tail=st.sampled_from([0.0, 1e-3, 0.5, 2.0, -1.0, float("inf"), float("nan")]))
@example(values=[1e308, 1e308], tail=0.0)
@example(values=[0.5, 0.5], tail=0.0)
@example(values=[0.25, 0.25], tail=0.5)
@example(values=[[0.5, 0.5]], tail=0.0)
@example(values=[1e308, -1e308, 0.5, 0.5], tail=0.0)  # a unit sum with a negative coordinate
def test_checks_raise_what_the_constructors_raise(values, tail):
    a = np.array(values)
    with np.errstate(over="ignore", invalid="ignore"):  # sums near the float range
        point = raised(outcome(lambda: SimplexPoint(a, tail_bound=tail)))
        assert raised(outcome(lambda: check_simplex(a, tail))) == point
        if a.ndim == 1 and a.size >= 2:
            tangent = raised(outcome(lambda: TangentVector(uniform(a.size), a)))
            assert raised(outcome(lambda: check_zero_sum(a))) == tangent


@given(values=VECTORS)
@example(values=[1e308, 1e308, -1e308, -1e308])  # a NaN sum of finite terms
@example(values=[1e308, 1e308])  # an infinite sum of finite terms
@example(values=[1e300, -1e300, 1.0])  # a projection that fails the rule
@example(values=[0.5, -0.5])  # kept
def test_project_zero_sum_keeps_only_vectors_that_pass_the_rule(values):
    a = np.array(values)
    with np.errstate(over="ignore", invalid="ignore"):
        got = outcome(lambda: project_zero_sum(a))
        if not np.isfinite(a).all():
            assert got == ("raise", NonFiniteInput, "raw vector contains NaN or infinity")
        elif not abs(np.add.reduce(a)) > membership_tol(a.size):
            assert got[0] == "ok" and got[1] is a
            check_zero_sum(a)
        else:
            w = zero_sum_rows(a[None])[0]
            checked = outcome(lambda: check_zero_sum(w))
            if checked[0] == "raise":
                assert got == checked
            else:
                assert got[0] == "ok" and got[1] is not a and bits(got[1]) == bits(w)
