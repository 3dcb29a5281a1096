"""The q-root transform between the simplex and positive parts of lq spheres.

The q-root map sends p to (p_n^(1/q)) and identifies simplex geometry
with sphere geometry; it is a plain function of q, and a sphere point
carries its own q back through :func:`inverse`.  Its differential is
available in closed form, so no finite differences appear here (they
live in test oracles only).

Note on normalization: the differential satisfies the exact identity
``lq_norm(pushforward(v, q).comps, q) == finsler_norm(v, q) / q``.  For
q = 2 the 1/4 factor in the Fisher-Rao inner product makes the
square-root map a genuine isometry; for other q the constant 1/q is
surfaced rather than absorbed into the metric.
"""

from __future__ import annotations

import numpy as np

from .errors import LossyTruncation, NotPositive
from .sequence_core import (
    SimplexPoint,
    SpherePoint,
    SphereTangent,
    TangentVector,
    check_exponent,
    same_base,
)


def forward(p: SimplexPoint, q: float) -> SpherePoint:
    """Map p to (p_n^(1/q)) on the positive part of the lq sphere.

    The q-th power sum of the image equals the coordinate sum of ``p``,
    so lossy truncations carry their tail bound over as a mass deficit.
    """
    check_exponent(q)
    if p.mass() < 0.5:
        raise LossyTruncation(
            f"truncation keeps only {p.mass():.3g} of the mass; refusing to lift"
        )
    x = p.coords ** (1.0 / q)
    return SpherePoint(x, q=q, mass_deficit=p.tail_bound)


def inverse(x: SpherePoint) -> SimplexPoint:
    """Map a strictly positive sphere point back to the simplex: p_n = x_n^q."""
    if not np.all(x.coords > 0.0):
        raise NotPositive("inverse transform needs strictly positive coordinates")
    return SimplexPoint(x.coords**x.q, tail_bound=x.mass_deficit)


def pushforward(v: TangentVector, q: float) -> SphereTangent:
    """Differential of the q-root map applied to a simplex tangent.

    Componentwise (1/q) * v_n * p_n^(1/q - 1), based at the image of the
    base point; tangency to the lq sphere follows from sum v_n = 0.
    """
    check_exponent(q)
    p = v.base.coords
    comps = (1.0 / q) * v.comps * p ** (1.0 / q - 1.0)
    return SphereTangent(forward(v.base, q), comps)


def pullback_inner(v: TangentVector, w: TangentVector) -> float:
    """Ambient l2 inner product of the square-root pushforwards.

    This is the sphere-side evaluation of the Fisher-Rao pairing; the
    square-root map being an isometry, it must agree with
    :func:`simplexgeo.metrics.fr_inner` up to rounding.
    """
    same_base(v, w)
    dv = pushforward(v, 2.0)
    dw = pushforward(w, 2.0)
    return float(np.dot(dv.comps, dw.comps))
