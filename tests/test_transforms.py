from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from simplexgeo.errors import (
    InvalidExponent,
    LengthMismatch,
    LossyTruncation,
    NotNormalizable,
    NotPositive,
)
from simplexgeo.metrics import finsler_norm, fr_inner
from simplexgeo.sequence_core import (
    SequenceSpec,
    SimplexPoint,
    SpherePoint,
    SphereTangent,
    lq_norm,
    make_simplex_point,
    make_tangent,
    random_simplex_point,
    random_tangent,
)
from simplexgeo.transforms import forward, inverse, pullback_inner, pushforward

ALL_Q = (1.5, 2.0, 3.0, 4.0)


def fd_pushforward(q, p, v, h=1e-7):
    """Finite-difference oracle for the differential of the root map."""
    plus = (p.coords + h * v.comps) ** (1.0 / q)
    minus = (p.coords - h * v.comps) ** (1.0 / q)
    return (plus - minus) / (2.0 * h)


class TestForward:
    def test_symmetric_sqrt(self, half_half):
        x = forward(half_half, 2.0)
        np.testing.assert_allclose(x.coords, [np.sqrt(0.5)] * 2, rtol=0, atol=0)
        assert np.all(x.coords > 0.0) and x.q == 2.0

    def test_cube_root(self):
        p = SimplexPoint(np.array([1 / 8, 7 / 8]))
        x = forward(p, 3.0)
        np.testing.assert_allclose(x.coords, [0.5, (7 / 8) ** (1 / 3)], rtol=1e-15)

    def test_geometric_normalized(self):
        p = make_simplex_point(SequenceSpec("geometric", 3, ratio=0.5))
        x = forward(p, 2.0)
        expect = np.sqrt([float(Fraction(4, 7)), float(Fraction(2, 7)), float(Fraction(1, 7))])
        np.testing.assert_allclose(x.coords, expect, rtol=1e-15)

    def test_power_sum_matches_mass(self):
        p = make_simplex_point(SequenceSpec("geometric", 6, ratio=0.5, normalize="none"))
        x = forward(p, 2.0)
        assert np.sum(x.coords**2) == pytest.approx(p.mass(), abs=1e-14)
        assert x.mass_deficit == p.tail_bound

    def test_lossy_truncation_rejected(self):
        p = SimplexPoint(np.array([0.2, 0.2]), tail_bound=0.6)
        with pytest.raises(LossyTruncation):
            forward(p, 2.0)


class TestInverse:
    def test_round_trip_examples(self):
        x = SpherePoint(np.array([np.sqrt(0.5), np.sqrt(0.5)]), q=2.0, mass_deficit=0.0)
        p = inverse(x)
        np.testing.assert_allclose(p.coords, [0.5, 0.5], rtol=0, atol=1e-15)

    def test_cube_round_trip(self):
        x = SpherePoint(np.array([0.5, (7 / 8) ** (1 / 3)]), q=3.0, mass_deficit=0.0)
        p = inverse(x)
        np.testing.assert_allclose(p.coords, [1 / 8, 7 / 8], rtol=0, atol=1e-15)

    def test_not_positive(self):
        x = SpherePoint(np.array([1.0, 0.0]), q=2.0, mass_deficit=0.0)
        with pytest.raises(NotPositive):
            inverse(x)

    @pytest.mark.parametrize("q", ALL_Q)
    def test_random_round_trips(self, q, rng):
        for dim in (2, 8, 64):
            p = random_simplex_point(rng, dim)
            back = inverse(forward(p, q))
            np.testing.assert_allclose(back.coords, p.coords, rtol=0, atol=1e-14)
            lifted = forward(p, q)
            again = forward(inverse(lifted), q)
            np.testing.assert_allclose(again.coords, lifted.coords, rtol=0, atol=1e-14)


class TestSphereRules:
    def test_power_sum_above_one_rejected(self):
        with pytest.raises(NotNormalizable, match=r"sum \|x\|\^q = 2.0, outside \[1 - 0.0, 1\]"):
            SpherePoint(np.array([1.0, 1.0]), q=2.0, mass_deficit=0.0)

    def test_power_sum_within_the_deficit_kept(self):
        x = SpherePoint(np.array([0.6, 0.6]), q=2.0, mass_deficit=0.3)
        assert x.coords.tolist() == [0.6, 0.6]

    def test_tangent_length_rejected(self):
        x = SpherePoint(np.array([np.sqrt(0.5), np.sqrt(0.5)]), q=2.0, mass_deficit=0.0)
        with pytest.raises(LengthMismatch, match="components have length 3, base has 2"):
            SphereTangent(x, np.array([1.0, -1.0, 0.0]))

    def test_tangency_defect_rejected(self):
        x = SpherePoint(np.array([0.5, (7 / 8) ** (1 / 3)]), q=3.0, mass_deficit=0.0)
        with pytest.raises(NotNormalizable, match=r"tangency defect 0.25 at q=3.0"):
            SphereTangent(x, np.array([1.0, 0.0]))


class TestPushforward:
    def test_sqrt_example(self, half_half):
        # d/dt sqrt(p + t v) at t=0 is v / (2 sqrt(p)); at p=1/2, v=1 that is
        # 1/sqrt(2), consistent with <dPhi v, dPhi v> = fr_inner(v, v) = 1
        v = make_tangent(half_half, np.array([1.0, -1.0]))
        dx = pushforward(v, 2.0)
        np.testing.assert_allclose(dx.comps, [1 / np.sqrt(2), -1 / np.sqrt(2)], rtol=1e-14)

    def test_zero_maps_to_zero(self, rng):
        p = random_simplex_point(rng, 5)
        v = make_tangent(p, np.zeros(5))
        for q in ALL_Q:
            assert np.all(pushforward(v, q).comps == 0.0)

    def test_cube_example(self):
        p = SimplexPoint(np.array([1 / 8, 7 / 8]))
        v = make_tangent(p, np.array([1.0, -1.0]))
        dx = pushforward(v, 3.0)
        expect = [(1 / 3) * (1 / 8) ** (-2 / 3), -(1 / 3) * (7 / 8) ** (-2 / 3)]
        np.testing.assert_allclose(dx.comps, expect, rtol=1e-14)

    @pytest.mark.parametrize("q", ALL_Q)
    def test_matches_finite_differences(self, q, rng):
        p = random_simplex_point(rng, 8)
        v = make_tangent(p, 0.1 * rng.standard_normal(p.dim))
        dx = pushforward(v, q)
        np.testing.assert_allclose(dx.comps, fd_pushforward(q, p, v), rtol=2e-7, atol=2e-8)

    @pytest.mark.parametrize("q", ALL_Q)
    def test_tangency_defect(self, q, rng):
        for _ in range(20):
            p = random_simplex_point(rng, 16)
            v = random_tangent(rng, p)
            dx = pushforward(v, q)
            x = dx.base.coords
            pairing = np.sum(np.sign(x) * np.abs(x) ** (q - 1.0) * dx.comps)
            assert abs(pairing) <= 1e-10

    def test_linearity(self, rng):
        p = random_simplex_point(rng, 12)
        v = random_tangent(rng, p)
        w = random_tangent(rng, p)
        for q in ALL_Q:
            for a, b in [(2.0, -3.0), (0.25, 0.5)]:
                combo = make_tangent(p, a * v.comps + b * w.comps)
                lhs = pushforward(combo, q).comps
                rhs = a * pushforward(v, q).comps + b * pushforward(w, q).comps
                np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)


class TestPullbackInner:
    def test_symmetric_example(self, half_half):
        v = make_tangent(half_half, np.array([1.0, -1.0]))
        assert pullback_inner(v, v) == pytest.approx(1.0, abs=1e-15)

    def test_zero(self, half_half):
        v = make_tangent(half_half, np.array([1.0, -1.0]))
        z = make_tangent(half_half, np.zeros(2))
        assert pullback_inner(z, v) == 0.0

    def test_skewed_example(self):
        # (1/4) (1/(1/4) + 1/(3/4)) = 4/3
        p = SimplexPoint(np.array([0.25, 0.75]))
        v = make_tangent(p, np.array([1.0, -1.0]))
        assert pullback_inner(v, v) == pytest.approx(4 / 3, rel=1e-15)

    def test_base_mismatch(self, rng):
        p = random_simplex_point(rng, 4)
        r = random_simplex_point(rng, 4)
        from simplexgeo.errors import BaseMismatch

        with pytest.raises(BaseMismatch):
            pullback_inner(random_tangent(rng, p), random_tangent(rng, r))


class TestIsometryIdentities:
    def test_isometry_q2(self, rng):
        for dim in (2, 8, 32):
            for _ in range(50):
                p = random_simplex_point(rng, dim)
                v = random_tangent(rng, p)
                w = random_tangent(rng, p)
                fr = fr_inner(v, w)
                pb = pullback_inner(v, w)
                assert abs(fr - pb) <= 1e-12 * max(1.0, abs(fr))

    @pytest.mark.parametrize("q", ALL_Q)
    def test_scaled_isometry(self, q, rng):
        for _ in range(50):
            p = random_simplex_point(rng, 16)
            v = random_tangent(rng, p)
            lhs = lq_norm(pushforward(v, q).comps, q)
            rhs = finsler_norm(v, q) / q
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_bad_transform_exponent(self, half_half):
        v = make_tangent(half_half, np.array([1.0, -1.0]))
        for q in (1.0, 0.0):
            with pytest.raises(InvalidExponent):
                forward(half_half, q)
            with pytest.raises(InvalidExponent):
                pushforward(v, q)


@given(st.floats(1.1, 6.0), st.integers(2, 24), st.integers(0, 2**32 - 1))
def test_round_trip_property(q, dim, seed):
    rng = np.random.default_rng(seed)
    p = random_simplex_point(rng, dim)
    back = inverse(forward(p, q))
    assert np.max(np.abs(back.coords - p.coords)) <= 1e-14
