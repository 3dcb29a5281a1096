import numpy as np
import pytest

from simplexgeo.errors import (
    BaseMismatch,
    DegenerateEndpoints,
    DimensionMismatch,
    InvalidExponent,
    LossyTruncation,
)
from simplexgeo.metrics import finsler_norm, fr_distance, fr_geodesic, fr_inner
from simplexgeo.sequence_core import (
    SimplexPoint,
    make_tangent,
    random_simplex_point,
    random_tangent,
)


def quadrature_length(p, r, steps=1000, h=1e-6):
    """Independent length oracle: midpoint rule on raw slerp arrays.

    Interpolates the square roots along the great circle and integrates
    sqrt((1/4) sum gamma'^2 / gamma) without touching the library path.
    """
    a, b = np.sqrt(p.coords), np.sqrt(r.coords)
    theta = np.arccos(np.clip(np.dot(a, b), -1.0, 1.0))

    def gamma(t):
        arc = (np.sin((1.0 - t) * theta) * a + np.sin(t * theta) * b) / np.sin(theta)
        return arc**2

    ts = (np.arange(steps) + 0.5) / steps
    total = 0.0
    for t in ts:
        mid = gamma(t)
        vel = (gamma(t + h) - gamma(t - h)) / (2.0 * h)
        total += np.sqrt(0.25 * np.sum(vel**2 / mid)) / steps
    return total


class TestFrInner:
    def test_symmetric_example(self, half_half):
        v = make_tangent(half_half, np.array([1.0, -1.0]))
        assert fr_inner(v, v) == pytest.approx(1.0, abs=0)

    def test_zero(self, half_half):
        v = make_tangent(half_half, np.array([1.0, -1.0]))
        z = make_tangent(half_half, np.zeros(2))
        assert fr_inner(z, v) == 0.0

    def test_skewed_example(self):
        p = SimplexPoint(np.array([0.25, 0.75]))
        v = make_tangent(p, np.array([1.0, -1.0]))
        assert fr_inner(v, v) == pytest.approx(4 / 3, rel=1e-15)

    def test_bilinear_symmetric_positive(self, rng):
        p = random_simplex_point(rng, 10)
        v, w, u = (random_tangent(rng, p) for _ in range(3))
        assert fr_inner(v, w) == pytest.approx(fr_inner(w, v), rel=1e-12)
        combo = make_tangent(p, 2.0 * v.comps + 3.0 * u.comps)
        assert fr_inner(combo, w) == pytest.approx(
            2.0 * fr_inner(v, w) + 3.0 * fr_inner(u, w), rel=1e-10, abs=1e-12
        )
        assert fr_inner(v, v) > 0.0

    def test_base_mismatch(self, rng):
        p, r = random_simplex_point(rng, 4), random_simplex_point(rng, 4)
        with pytest.raises(BaseMismatch):
            fr_inner(random_tangent(rng, p), random_tangent(rng, r))


class TestFinslerNorm:
    def test_q2_example(self, half_half):
        v = make_tangent(half_half, np.array([1.0, -1.0]))
        assert finsler_norm(v, 2.0) == pytest.approx(2.0, rel=1e-15)

    def test_zero(self, half_half):
        z = make_tangent(half_half, np.zeros(2))
        for q in (1.5, 2.0, 3.0):
            assert finsler_norm(z, q) == 0.0

    def test_q3_example(self, half_half):
        v = make_tangent(half_half, np.array([1.0, -1.0]))
        assert finsler_norm(v, 3.0) == pytest.approx(2.0, rel=1e-15)

    def test_matches_naive_form(self, rng):
        p = random_simplex_point(rng, 16)
        v = random_tangent(rng, p)
        for q in (1.5, 2.0, 3.0, 4.0):
            naive = float(np.sum(np.abs(v.comps / p.coords) ** q * p.coords)) ** (1.0 / q)
            assert finsler_norm(v, q) == pytest.approx(naive, rel=1e-12)

    def test_is_twice_sqrt_fr(self, rng):
        for _ in range(30):
            p = random_simplex_point(rng, 12)
            v = random_tangent(rng, p)
            assert finsler_norm(v, 2.0) == pytest.approx(
                2.0 * np.sqrt(fr_inner(v, v)), rel=1e-12
            )

    def test_triangle_and_homogeneity(self, rng):
        p = random_simplex_point(rng, 8)
        v, w = random_tangent(rng, p), random_tangent(rng, p)
        for q in (1.5, 3.0):
            s = make_tangent(p, v.comps + w.comps)
            assert finsler_norm(s, q) <= finsler_norm(v, q) + finsler_norm(w, q) + 1e-12
            scaled = make_tangent(p, -2.5 * v.comps)
            assert finsler_norm(scaled, q) == pytest.approx(2.5 * finsler_norm(v, q), rel=1e-12)

    def test_bad_exponent(self, half_half):
        v = make_tangent(half_half, np.array([1.0, -1.0]))
        with pytest.raises(InvalidExponent):
            finsler_norm(v, 0.5)


class TestFrDistance:
    def test_coincident(self, half_half):
        assert fr_distance(half_half, half_half) == 0.0

    def test_known_value(self, half_half):
        r = SimplexPoint(np.array([0.9, 0.1]))
        expect = np.arccos(np.sqrt(0.45) + np.sqrt(0.05))
        assert fr_distance(half_half, r) == pytest.approx(expect, abs=1e-15)
        assert expect == pytest.approx(0.46365, abs=1e-5)

    def test_symmetry_and_range(self, rng):
        for _ in range(50):
            p, r = random_simplex_point(rng, 8), random_simplex_point(rng, 8)
            d = fr_distance(p, r)
            assert 0.0 <= d < np.pi / 2
            assert d == fr_distance(r, p)

    def test_triangle_inequality(self, rng):
        for _ in range(100):
            p, r, s = (random_simplex_point(rng, 6) for _ in range(3))
            assert fr_distance(p, r) <= fr_distance(p, s) + fr_distance(s, r) + 1e-12

    def test_matches_sphere_angle(self, rng):
        from simplexgeo.transforms import forward

        p, r = random_simplex_point(rng, 12), random_simplex_point(rng, 12)
        cos = np.dot(forward(p, 2.0).coords, forward(r, 2.0).coords)
        assert fr_distance(p, r) == pytest.approx(np.arccos(cos), abs=1e-12)

    def test_dim_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            fr_distance(random_simplex_point(rng, 4), random_simplex_point(rng, 6))

    def test_lossy_point_rejected(self, half_half):
        lossy = SimplexPoint(np.array([0.4, 0.4]), tail_bound=0.2)
        for p, r in ((lossy, half_half), (half_half, lossy)):
            with pytest.raises(LossyTruncation):
                fr_distance(p, r)


class TestFrGeodesic:
    def test_endpoints(self, half_half):
        r = SimplexPoint(np.array([0.9, 0.1]))
        np.testing.assert_allclose(fr_geodesic(half_half, r, 0.0).coords, half_half.coords, atol=1e-12)
        np.testing.assert_allclose(fr_geodesic(half_half, r, 1.0).coords, r.coords, atol=1e-12)

    def test_midpoint_structure(self, half_half):
        r = SimplexPoint(np.array([0.9, 0.1]))
        theta = fr_distance(half_half, r)
        arc = (np.sin(theta / 2) * (np.sqrt(half_half.coords) + np.sqrt(r.coords))) / np.sin(theta)
        mid = fr_geodesic(half_half, r, 0.5)
        np.testing.assert_allclose(mid.coords, arc**2 / np.sum(arc**2), rtol=1e-14)
        assert mid.coords.sum() == pytest.approx(1.0, abs=1e-15)

    def test_degenerate(self, half_half):
        with pytest.raises(DegenerateEndpoints):
            fr_geodesic(half_half, half_half, 0.5)

    def test_interior_positivity(self, rng):
        for _ in range(100):
            p, r = random_simplex_point(rng, 8), random_simplex_point(rng, 8)
            for t in np.linspace(0.0, 1.0, 21):
                assert fr_geodesic(p, r, float(t)).coords.min() > 0.0

    def test_quadrature_length_matches_distance(self, half_half, rng):
        r = SimplexPoint(np.array([0.9, 0.1]))
        assert quadrature_length(half_half, r) == pytest.approx(
            fr_distance(half_half, r), abs=1e-4
        )
        p2, r2 = random_simplex_point(rng, 8), random_simplex_point(rng, 8)
        assert quadrature_length(p2, r2) == pytest.approx(fr_distance(p2, r2), abs=1e-4)
