"""Directional derivatives, the alpha-connection, and exponential geodesics.

A vector field is a plain function from a point to raw components;
each value is attached with ``make_tangent`` at the point where it was
evaluated.  Derivatives of vector fields are taken along the affine line
p + t*v, which is a valid chart curve because zero-sum directions
preserve the coordinate sum.  Exponential geodesics are softmax curves
p_n(t) = p_n(0) exp(a_n t) / Z(t); they are defined for every real t,
and exponents that differ by a common shift give the same curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import sequence_core
from .errors import (
    BaseMismatch,
    CurveDomain,
    LengthMismatch,
    LossyTruncation,
    NonFiniteInput,
    StepUnderflow,
)
from .sequence_core import (
    SimplexPoint,
    TangentVector,
    _read_only,
    _require_finite,
    check_exponent,
    make_tangent,
    same_point,
    softmax_curve,
    softmax_rows,
)

#: Finite-difference steps: fields are smooth in p, curves in t.
FIELD_STEP = 1e-5
CURVE_STEP = 1e-3
_STEP_FLOOR = 1e-8

Curve = Callable[[float], SimplexPoint]
#: A vector field: a pure map from a point to raw components, attached there by make_tangent.
Field = Callable[[SimplexPoint], np.ndarray]


def _shift(p: SimplexPoint, v: TangentVector, h: float) -> SimplexPoint | None:
    coords = p.coords + h * v.comps
    if np.all(coords > 0.0):
        return SimplexPoint(coords, tail_bound=p.tail_bound)
    return None


def directional_derivative(W: Field, p: SimplexPoint, v: TangentVector) -> np.ndarray:
    """Central-difference derivative of W along the line p + t*v.

    The step starts at ``FIELD_STEP`` and is halved until both p + h*v and
    p - h*v stay strictly positive; below 1e-8 the point is declared too
    close to the boundary.
    Returns a raw component vector, not necessarily zero-sum.
    """
    h = FIELD_STEP
    while (plus := _shift(p, v, h)) is None or (minus := _shift(p, v, -h)) is None:
        h *= 0.5
        if h < _STEP_FLOOR:
            raise StepUnderflow(
                f"no step above {_STEP_FLOOR} keeps {p.coords.min():.3g}-interior point positive"
            )
    return (make_tangent(plus, W(plus)).comps - make_tangent(minus, W(minus)).comps) / (2.0 * h)


def alpha_connection(V: Field, W: Field, p: SimplexPoint, q: float) -> TangentVector:
    """Covariant derivative of W along V for the alpha = 1 - 2/q family.

    D_V W(p) - (1/q*) ( (V_n/p_n) W_n - (sum_k V_k W_k / p_k) p_n )
    with q* = q / (q - 1).  The correction is algebraically zero-sum on
    the simplex, so the finite-difference residue is projected away.
    """
    check_exponent(q)
    v = make_tangent(p, V(p))
    wp = make_tangent(p, W(p)).comps
    d = directional_derivative(W, p, v)
    inv_qstar = (q - 1.0) / q
    weighted = v.comps * wp / p.coords
    raw = d - inv_qstar * (weighted - float(weighted.sum()) * p.coords)
    return make_tangent(p, raw)


# ---------------------------------------------------------------------------
# exponential connection along curves
# ---------------------------------------------------------------------------


def _e_covariant(p_t: np.ndarray, ratio_plus: np.ndarray, ratio_minus: np.ndarray) -> np.ndarray:
    """p (dg - <p, dg>) with dg = (ratio_plus - ratio_minus) / 2h, for one row or each row of a block.

    ``ratio_plus`` and ``ratio_minus`` are W / p at t + h and t - h; each
    row's pairing is its own ``np.dot``, as the one-row case computes it.
    """
    dg = (ratio_plus - ratio_minus) / (2.0 * CURVE_STEP)
    n = dg.shape[-1]
    dots = np.array([np.dot(p, g) for p, g in zip(p_t.reshape(-1, n), dg.reshape(-1, n))])
    return p_t * (dg - dots.reshape(dg.shape[:-1] + (1,)))


def e_covariant_along_curve(
    curve: Curve, vectors: Callable[[float], np.ndarray], t: float
) -> np.ndarray:
    """Exponential-connection derivative of a vector family along a curve.

    Evaluates p_n (d/dt (W_n / p_n) - sum_k p_k d/dt (W_k / p_k)) with the
    outer time derivative by central differences of the ratio, step
    ``CURVE_STEP``.  Raises :class:`CurveDomain` when the result is not
    finite, e.g. when a ratio overflows against a flushed coordinate.
    """
    h = CURVE_STEP
    p_t = curve(t).coords
    with np.errstate(over="ignore", invalid="ignore"):
        ratio_plus = vectors(t + h) / curve(t + h).coords
        ratio_minus = vectors(t - h) / curve(t - h).coords
        out = _e_covariant(p_t, ratio_plus, ratio_minus)
    if not np.all(np.isfinite(out)):
        raise CurveDomain(f"e-connection derivative is not finite at t = {t}")
    return out


def e_connection_residual(curve: Curve, t: float) -> np.ndarray:
    """Geodesic-equation defect of a curve at time t.

    Near zero exactly when the curve is an exponential geodesic.  The
    velocity is itself a central difference, so the curve must be defined
    and positive on [t - 2h, t + 2h] with h = ``CURVE_STEP``.
    """
    h = CURVE_STEP

    def velocity(s: float) -> np.ndarray:
        return (curve(s + h).coords - curve(s - h).coords) / (2.0 * h)

    return e_covariant_along_curve(curve, velocity, t)


@dataclass(frozen=True)
class EGeodesic:
    """Exponential geodesic: initial point plus exponents, kept as given.

    Exponents that differ by a common shift give the same curve, since the
    shift cancels between numerator and normalizer.  :func:`make_e_geodesic`
    gives zero gauge, <p0, a> = sum v0 = 0 up to rounding.
    """

    p0: SimplexPoint
    a: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.a, dtype=float)
        if arr.size != self.p0.dim:
            raise LengthMismatch(
                f"exponent vector has length {arr.size}, point has dim {self.p0.dim}"
            )
        _require_finite(arr, "exponent vector")
        object.__setattr__(self, "a", _read_only(arr))

    def __call__(self, t: float) -> SimplexPoint:
        return e_geodesic_eval(self, t)


def make_e_geodesic(p0: SimplexPoint, v0: TangentVector) -> EGeodesic:
    """Geodesic through p0 with initial velocity v0: exponents v0_n / p0_n."""
    if not same_point(v0.base, p0):
        raise BaseMismatch("initial velocity is attached to a different point")
    if p0.tail_bound != 0.0:
        raise LossyTruncation("geodesics start from exact (tail_bound = 0) points")
    # An overflowing ratio is reported by EGeodesic's typed error alone.
    with np.errstate(over="ignore"):
        a = v0.comps / p0.coords
    return EGeodesic(p0, a)


def e_geodesic_eval(g: EGeodesic, t: float) -> SimplexPoint:
    """Evaluate the softmax curve at any real t, overflow-safely.

    Computed in log space; coordinates that underflow are flushed to the
    smallest positive normal, so the result stays in the open simplex
    with an exact unit sum even at |t| = 1e4.
    """
    return softmax_curve(g.p0, g.a, t)


def e_geodesic_residual_rows(geo: EGeodesic, times) -> tuple[np.ndarray, np.ndarray]:
    """The ``(T, N)`` rows of an e-geodesic and the l1 norm of its residual at each time.

    Row i is bitwise ``geo(times[i]).coords`` and residual i is bitwise
    ``float(np.abs(e_connection_residual(geo, times[i])).sum())``: the six
    other curve points each residual reads (t +- h and both of those +- h,
    by the same float additions) come from :func:`softmax_rows`, one block
    per chunk of times.  As in a loop that builds every row before any
    residual, a failing row raises first; a chunk whose points raise
    :class:`NonFiniteInput`, or whose residual is not finite, is redone by
    :func:`e_connection_residual` in time order, which raises its error.
    """
    times = np.asarray(times, dtype=float)
    rows = softmax_rows(geo.p0, geo.a, times)
    h = CURVE_STEP
    n = geo.p0.dim
    residuals = np.empty(times.size)
    step = max(1, sequence_core._SOFTMAX_BLOCK // (6 * n))
    for lo in range(0, times.size, step):
        t = times[lo : lo + step]
        plus, minus = t + h, t - h
        shifted = np.concatenate((plus + h, plus - h, plus, minus + h, minus - h, minus))
        try:
            pp, pm, p, mp, mm, m = softmax_rows(geo.p0, geo.a, shifted).reshape(6, t.size, n)
        except NonFiniteInput:
            out = None
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                ratio_plus = (pp - pm) / (2.0 * h) / p
                ratio_minus = (mp - mm) / (2.0 * h) / m
                out = _e_covariant(rows[lo : lo + t.size], ratio_plus, ratio_minus)
        if out is not None and np.isfinite(out).all():
            residuals[lo : lo + t.size] = np.abs(out).sum(axis=1)
        else:
            residuals[lo : lo + t.size] = [
                float(np.abs(e_connection_residual(geo, s)).sum()) for s in t
            ]
    return rows, residuals
