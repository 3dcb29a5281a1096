"""Fisher-Rao metric, lq Finsler norms, and great-circle geodesics.

The inner product carries the conventional 1/4 factor, which makes the
square-root lift an isometry onto the round sphere; distances therefore
use the radius-1 convention arccos(sum sqrt(p r)), the Bhattacharyya
angle, with range [0, pi/2) on the open simplex.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateEndpoints, DimensionMismatch, LossyTruncation
from .sequence_core import (
    SimplexPoint,
    TangentVector,
    check_exponent,
    check_simplex,
    lq_norm,
    membership_tol,
    same_base,
)


def fr_inner(v: TangentVector, w: TangentVector) -> float:
    """Fisher-Rao inner product (1/4) sum v_n w_n / p_n."""
    p = same_base(v, w)
    return 0.25 * float(np.sum(v.comps * w.comps / p.coords))


def finsler_norm(v: TangentVector, q: float) -> float:
    """lq Fisher-Rao norm (sum |v_n / p_n|^q p_n)^(1/q).

    Evaluated as the lq norm of v_n * p_n^((1-q)/q), which is the same
    number without forming the possibly huge ratios v_n / p_n.
    """
    check_exponent(q)
    p = v.base.coords
    return lq_norm(v.comps * p ** ((1.0 - q) / q), q)


def fr_distance(p: SimplexPoint, r: SimplexPoint) -> float:
    """Fisher-Rao distance arccos(sum sqrt(p_n r_n)).

    The argument is a sum of square roots, so it is never negative; values
    within 1e-12 of 1 are treated as coincident points and return 0.
    """
    if p.dim != r.dim:
        raise DimensionMismatch(f"dims {p.dim} and {r.dim} differ")
    if p.tail_bound != 0.0 or r.tail_bound != 0.0:
        raise LossyTruncation("distance requires exact (tail_bound = 0) points")
    cos = float(np.sum(np.sqrt(p.coords * r.coords)))
    if cos >= 1.0 - 1e-12:
        return 0.0
    return float(np.arccos(cos))


def fr_geodesic(p: SimplexPoint, r: SimplexPoint, t: float) -> SimplexPoint:
    """Point at parameter t on the minimizing Fisher-Rao geodesic.

    Realized as the great-circle arc between the square roots, squared
    back; both roots are positive, so every intermediate point for
    t in [0, 1] stays in the open simplex.  The one-row case of
    :func:`fr_geodesic_block`.
    """
    return SimplexPoint(fr_geodesic_block(p, r, [t])[0])


def fr_geodesic_block(p: SimplexPoint, r: SimplexPoint, ts: np.ndarray) -> np.ndarray:
    """Coordinates of the geodesic from p to r at each parameter of the 1-D ``ts``, as (T, N) rows.

    Every row is checked by :class:`SimplexPoint`'s rule: the block's
    minimum and each row's sum settle the common case; otherwise
    :func:`check_simplex` replays the rows in order, so the first bad row
    raises its own error.
    """
    theta = fr_distance(p, r)
    if theta == 0.0:
        raise DegenerateEndpoints("geodesic endpoints coincide")
    ts = np.asarray(ts, dtype=float)[:, None]
    a = np.sqrt(p.coords)
    b = np.sqrt(r.coords)
    arc = (np.sin((1.0 - ts) * theta) * a + np.sin(ts * theta) * b) / np.sin(theta)
    rows = arc**2
    rows /= rows.sum(axis=1, keepdims=True)
    sums = rows.sum(axis=1)
    if not (rows.min(initial=np.inf) > 0.0 and (np.abs(sums - 1.0) <= membership_tol(p.dim)).all()):
        for row in rows:
            check_simplex(row, 0.0)
    return rows
