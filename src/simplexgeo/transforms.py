"""Root transforms between the simplex and positive parts of lq spheres.

The q-root map sends p to (p_n^(1/q)) and identifies simplex geometry
with sphere geometry; its differential is available in closed form, so
no finite differences appear here (they live in test oracles only).

Note on normalization: the differential satisfies the exact identity
``lq_norm(pushforward(v), q) == finsler_norm(v, q) / q``.  For q = 2 the
1/4 factor in the Fisher-Rao inner product makes the square-root map a
genuine isometry; for other q the constant 1/q is surfaced rather than
absorbed into the metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ExponentNotTwo, InvalidExponent, LossyTruncation, NotPositive
from .sequence_core import (
    SimplexPoint,
    SpherePoint,
    SphereTangent,
    TangentVector,
    check_exponent,
    same_base,
)


@dataclass(frozen=True)
class RootTransform:
    """Coordinatewise q-th root map from the simplex to the lq sphere."""

    q: float = 2.0

    def __post_init__(self):
        check_exponent(self.q)


def forward(transform: RootTransform, p: SimplexPoint) -> SpherePoint:
    """Map p to (p_n^(1/q)) on the positive part of the lq sphere.

    The q-th power sum of the image equals the coordinate sum of ``p``,
    so lossy truncations carry their tail bound over as a mass deficit.
    """
    if p.mass() < 0.5:
        raise LossyTruncation(
            f"truncation keeps only {p.mass():.3g} of the mass; refusing to lift"
        )
    x = p.coords ** (1.0 / transform.q)
    return SpherePoint(x, q=transform.q, mass_deficit=p.tail_bound)


def inverse(transform: RootTransform, x: SpherePoint) -> SimplexPoint:
    """Map a strictly positive sphere point back to the simplex: p_n = x_n^q."""
    if x.q != transform.q:
        raise InvalidExponent(f"sphere point has q={x.q}, transform has q={transform.q}")
    if not np.all(x.coords > 0.0):
        raise NotPositive("inverse transform needs strictly positive coordinates")
    return SimplexPoint(x.coords**transform.q, tail_bound=x.mass_deficit)


def pushforward(transform: RootTransform, v: TangentVector) -> SphereTangent:
    """Differential of the q-root map applied to a simplex tangent.

    Componentwise (1/q) * v_n * p_n^(1/q - 1), based at the image of the
    base point; tangency to the lq sphere follows from sum v_n = 0.
    """
    q = transform.q
    p = v.base.coords
    comps = (1.0 / q) * v.comps * p ** (1.0 / q - 1.0)
    return SphereTangent(forward(transform, v.base), comps)


def pullback_inner(transform: RootTransform, v: TangentVector, w: TangentVector) -> float:
    """Ambient l2 inner product of the pushforwards (q = 2 only).

    This is the sphere-side evaluation of the Fisher-Rao pairing; the
    square-root map being an isometry, it must agree with
    :func:`simplexgeo.metrics.fr_inner` up to rounding.
    """
    if transform.q != 2.0:
        raise ExponentNotTwo(f"pullback inner product needs q = 2, got {transform.q}")
    same_base(v, w)
    dv = pushforward(transform, v)
    dw = pushforward(transform, w)
    return float(np.dot(dv.comps, dw.comps))
