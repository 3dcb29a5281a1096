"""Linear objectives on the simplex and their Fisher-Rao gradient flows.

The flow of F(p) = <c, p> follows the softmax curves
p_n(t) = p_n(0) exp(c_n t) / Z(t), which are exactly the exponential
geodesics with exponents c_n up to gauge.  A classical fixed-step RK4
integrator is kept alongside as an independent oracle.

Normalization audit: with the 1/4 factor in the Fisher-Rao inner product
the metric dual of dF is 4 W, where W_n = p_n (c_n - <c, p>) is the field
integrated here; the two conventions differ by the time rescaling
t -> 4 t.  The curves above are taken as the defining convention, and
``fr_inner(4 W, v) == <c, v>`` is pinned by tests.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, asdict, dataclass, field

import numpy as np

from .connections import EGeodesic, make_e_geodesic
from .errors import (
    DimensionMismatch,
    GridTooLarge,
    InvalidGrid,
    InvalidParameter,
    NonPositiveCoordinate,
    PositivityLost,
)
from .sequence_core import (
    SimplexPoint,
    TangentVector,
    _read_only,
    _require_finite,
    check_simplex,
    project_zero_sum,
    softmax_curve,
    softmax_rows,
)

#: Horizon cap for the closed-form solver's doubling schedule.
MAX_HORIZON = 1e6
#: Most rows a time grid may have (the rows of one trajectory).
MAX_GRID_ROWS = 10**6
#: Central-difference step in t of the flow's ODE residual.
RESIDUAL_STEP = 1e-4


@dataclass(frozen=True)
class LinearObjective:
    """Objective coefficients c for maximizing <c, p> over the closed simplex."""

    c: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.c, dtype=float)
        if a.ndim != 1 or a.size < 2:
            raise DimensionMismatch("objective needs a vector of at least 2 coefficients")
        _require_finite(a, "objective coefficient vector")
        object.__setattr__(self, "c", _read_only(a))

    @property
    def dim(self) -> int:
        return self.c.size

    @property
    def strictly_decreasing(self) -> bool:
        return bool(np.all(self.c[:-1] > self.c[1:]))

    @property
    def gap(self) -> float:
        """Spectral gap c_0 - c_1 governing the convergence rate (inf when it overflows)."""
        return float(self.c[0]) - float(self.c[1])


@dataclass(frozen=True)
class Trajectory:
    """Times, a ``(T, N)`` block of rows (made read-only in place, not copied) and
    per-step residuals; the objective, if not None, fills the ``objective`` column."""

    times: np.ndarray
    coords: np.ndarray
    obj: InitVar[LinearObjective | None]
    residual_l1: np.ndarray
    objective: np.ndarray | None = field(init=False)

    def __post_init__(self, obj: LinearObjective | None):
        t = np.asarray(self.times, dtype=float)
        rows = np.asarray(self.coords, dtype=float)
        residual = np.asarray(self.residual_l1, dtype=float)
        if rows.ndim != 2 or len(rows) != t.size or residual.size != t.size:
            raise DimensionMismatch(f"rows {rows.shape}, {residual.size} residuals, {t.size} times")
        if t.size > 1 and not (np.diff(t) > 0.0).all():
            raise InvalidGrid("times must be strictly increasing")
        if obj is not None and obj.dim != rows.shape[1]:
            raise DimensionMismatch(f"objective dim {obj.dim}, row dim {rows.shape[1]}")
        # One dot per row, so each value is bitwise objective_value at that row.
        values = None if obj is None else np.array([float(np.dot(obj.c, row)) for row in rows])
        rows.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "coords", rows)
        object.__setattr__(self, "residual_l1", residual)
        object.__setattr__(self, "objective", values)

    def __len__(self) -> int:
        return self.times.size


def objective_value(obj: LinearObjective, p: SimplexPoint) -> float:
    """<c, p>; bounded above by max(c) on the closed simplex."""
    if obj.dim != p.dim:
        raise DimensionMismatch(f"objective dim {obj.dim}, point dim {p.dim}")
    return float(np.dot(obj.c, p.coords))


def gradient_field(obj: LinearObjective, x: np.ndarray) -> np.ndarray:
    """Replicator-form ascent field W_n = x_n (c_n - <c, x>) at coordinates x, projected
    by :func:`project_zero_sum`, which raises the typed error of :class:`TangentVector`'s
    rule for a field that fails it.  Vanishes exactly when c is constant.
    """
    c = obj.c
    if c.size != x.size:
        raise DimensionMismatch(f"objective dim {c.size}, point dim {x.size}")
    return project_zero_sum(x * c - float(np.dot(c, x)) * x)


def flow_closed_form(obj: LinearObjective, p0: SimplexPoint, t: float) -> SimplexPoint:
    """Exact flow point: softmax of log p_0 + c t, defined for all real t."""
    if obj.dim != p0.dim:
        raise DimensionMismatch(f"objective dim {obj.dim}, point dim {p0.dim}")
    return softmax_curve(p0, obj.c, t)


def flow_ode_residual(obj: LinearObjective, p0: SimplexPoint, t: float) -> float:
    """l1 defect between the flow's finite-difference velocity and the field."""
    h = RESIDUAL_STEP
    plus = flow_closed_form(obj, p0, t + h).coords
    minus = flow_closed_form(obj, p0, t - h).coords
    fd = (plus - minus) / (2.0 * h)
    w = gradient_field(obj, flow_closed_form(obj, p0, t).coords)
    return float(np.abs(fd - w).sum())


def time_grid(t_max: float, dt: float) -> np.ndarray:
    """Times 0, dt, ..., n dt with n = round(t_max / dt).

    Raises :class:`InvalidGrid` unless 0 < dt < inf and t_max >= 0 (NaN
    fails both), and :class:`GridTooLarge` when t_max / dt is not finite or
    the grid would have more than ``MAX_GRID_ROWS`` rows.
    """
    if not (0.0 < dt < math.inf and t_max >= 0.0):
        raise InvalidGrid(f"time grid needs 0 < dt < inf and t_max >= 0, got {t_max}, {dt}")
    steps = t_max / dt
    rows = int(round(steps)) + 1 if math.isfinite(steps) else math.inf
    if rows > MAX_GRID_ROWS:
        raise GridTooLarge(f"t_max / dt = {steps} asks for more than {MAX_GRID_ROWS} grid rows")
    return dt * np.arange(rows)


def flow_trajectory(obj: LinearObjective, p0: SimplexPoint, times: np.ndarray) -> Trajectory:
    """Closed-form flow sampled on a time grid, with per-step ODE residuals."""
    times = np.asarray(times, dtype=float)
    rows = np.empty((len(times), obj.dim))
    for i, t in enumerate(times):
        rows[i] = flow_closed_form(obj, p0, t).coords
    # A field whose <c, p> overflows is reported by gradient_field's typed error alone.
    with np.errstate(over="ignore"):
        residuals = np.array([flow_ode_residual(obj, p0, t) for t in times])
    return Trajectory(times, rows, obj, residuals)


# ---------------------------------------------------------------------------
# independent oracle: classical fixed-step RK4
# ---------------------------------------------------------------------------


def integrate_rk4(obj: LinearObjective, p0: SimplexPoint, t_max: float, dt: float) -> Trajectory:
    """Fixed-step 4th-order integration of dp/dt = gradient_field(obj, p), on plain arrays.

    :func:`check_simplex` holds every stage point to the rule of :class:`SimplexPoint`, and
    :func:`gradient_field` every field to the rule of :class:`TangentVector`.  Each accepted
    state is renormalized to unit sum (the drift per step is recorded) and positivity-checked;
    leaving the open simplex raises :class:`PositivityLost`.
    """
    times = time_grid(t_max, dt)
    tail = p0.tail_bound
    # (0.5 * dt) * k is how Python evaluates 0.5 * dt * k, so the stages keep their bits.
    half, sixth = 0.5 * dt, dt / 6.0

    def stage(x: np.ndarray) -> np.ndarray:
        check_simplex(x, tail)
        return gradient_field(obj, x)

    coords = p0.coords
    rows = np.empty((times.size, p0.dim))
    rows[0] = coords
    drifts = np.zeros(times.size)
    # A stage that overflows leaves the simplex, which the point rule reports as a typed error.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, times.size):
            try:
                k1 = gradient_field(obj, coords)
                k2 = stage(coords + half * k1)
                k3 = stage(coords + half * k2)
                k4 = stage(coords + dt * k3)
            except NonPositiveCoordinate as exc:
                raise PositivityLost("an RK4 stage left the open simplex; shrink dt") from exc
            coords = coords + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            s = float(np.add.reduce(coords, axis=None))
            drifts[i] = abs(1.0 - s)
            coords = coords / s
            # Same-signed entries over their sum: a positive row is finite, sums to 1 within
            # a few N eps and so passes the SimplexPoint rule; it needs no further check.
            # A NaN minimum fails the test too.
            if not np.minimum.reduce(coords, axis=None) > 0.0:
                raise PositivityLost("an RK4 step left the open simplex; shrink dt")
            rows[i] = coords
    return Trajectory(times, rows, obj, drifts)


# ---------------------------------------------------------------------------
# the linear program
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LpReport:
    """Outcome of following the ascent flow toward the vertex optimum."""

    converged: bool
    t_final: float
    tol: float
    distance: float
    gap: float
    rate: float | None
    advisory: str | None
    probes: tuple[tuple[float, float], ...]

    @property
    def rate_rel_err(self) -> float | None:
        if self.rate is None or self.gap == 0.0:
            return None
        return abs(self.rate - self.gap) / abs(self.gap)

    def to_dict(self) -> dict:
        return {**asdict(self), "rate_rel_err": self.rate_rel_err}


def _vertex_gaps(rows: np.ndarray) -> np.ndarray:
    """l1 distance of a point, or of each row of a block, to the vertex e_0."""
    e0 = np.zeros(rows.shape[-1])
    e0[0] = 1.0
    return np.abs(rows - e0).sum(axis=-1)


def _vertex_distance(obj: LinearObjective, p0: SimplexPoint, t: float) -> float:
    return float(_vertex_gaps(flow_closed_form(obj, p0, t).coords))


def _crossing_time(
    obj: LinearObjective, p0: SimplexPoint, level: float, lo: float, hi: float
) -> float:
    """Bisect for the first time the vertex distance drops to ``level``.

    Once ``lo`` and ``hi`` are adjacent floats ``mid`` equals one of them,
    and no later step would change ``0.5 * (lo + hi)``.
    """
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _vertex_distance(obj, p0, mid) > level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _fit_rate(obj: LinearObjective, p0: SimplexPoint, tol: float, probes: list) -> float | None:
    """Least-squares slope of log distance over the last decade of decay."""
    level_lo = max(tol, 1e-11)
    level_hi = 10.0 * level_lo
    if probes[0][1] <= level_hi:  # at t = 0
        return None
    t_hi = _crossing_time(obj, p0, level_hi, 0.0, probes[-1][0])
    t_lo = _crossing_time(obj, p0, level_lo, t_hi, probes[-1][0])
    ts = np.linspace(t_hi, t_lo, 50)
    ds = _vertex_gaps(softmax_rows(p0, obj.c, ts))
    slope = np.polyfit(ts, np.log(ds), 1)[0]
    return float(-slope)


def solve_lp(
    obj: LinearObjective, p0: SimplexPoint, tol: float
) -> tuple[SimplexPoint, LpReport]:
    """Follow the closed-form flow until within ``tol`` (l1) of the vertex e_0.

    The horizon doubles from t = 1 to a hard cap; the limit is the last
    point probed, and the cap gives a non-converged report, no error.
    For objectives that are not strictly decreasing the flow still runs,
    and an advisory says that the limit may sit on a face.
    """
    if not tol > 0.0:
        raise InvalidParameter(f"tol must be positive, got {tol}")
    advisory = None
    if not obj.strictly_decreasing:
        advisory = (
            "NotStrictlyDecreasing: objective coefficients are not strictly "
            "decreasing; the limit may be a non-vertex face point"
        )

    probes: list[tuple[float, float]] = [(0.0, _vertex_distance(obj, p0, 0.0))]
    t = 1.0
    converged = False
    while True:
        limit = flow_closed_form(obj, p0, t)
        d = float(_vertex_gaps(limit.coords))
        probes.append((t, d))
        if d <= tol:
            converged = True
            break
        if t >= MAX_HORIZON:
            break
        t = min(2.0 * t, MAX_HORIZON)

    rate = _fit_rate(obj, p0, tol, probes) if converged else None
    report = LpReport(
        converged=converged,
        t_final=t,
        tol=tol,
        distance=probes[-1][1],
        gap=obj.gap,
        rate=rate,
        advisory=advisory,
        probes=tuple(probes),
    )
    return limit, report


def flow_geodesic_correspondence(
    obj: LinearObjective,
    p0: SimplexPoint,
    times: tuple[float, ...] = (0.0, 0.5, 1.0, 5.0),
) -> float:
    """Max l1 gap between the gradient flow and its exponential geodesic.

    The geodesic starts with velocity W(p0), whose exponents are the
    objective coefficients shifted by the gauge <c, p0>; both curves are
    the same softmax curve, so the deviation is pure rounding.
    """
    geo: EGeodesic = make_e_geodesic(p0, TangentVector(p0, gradient_field(obj, p0.coords)))
    worst = 0.0
    for t in times:
        a = flow_closed_form(obj, p0, t).coords
        b = geo(t).coords
        worst = max(worst, float(np.abs(a - b).sum()))
    return worst
