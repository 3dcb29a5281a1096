import numpy as np
import pytest

from simplexgeo.connections import (
    CURVE_STEP,
    EGeodesic,
    alpha_connection,
    directional_derivative,
    e_connection_residual,
    e_covariant_along_curve,
    e_geodesic_eval,
    make_e_geodesic,
)
from simplexgeo.errors import (
    BaseMismatch,
    CurveDomain,
    InvalidExponent,
    LengthMismatch,
    LossyTruncation,
    NonFiniteInput,
    SimplexGeoError,
    StepUnderflow,
)
from simplexgeo.flows import LinearObjective, gradient_field
from simplexgeo.metrics import fr_geodesic
from simplexgeo.sequence_core import (
    SimplexPoint,
    TangentVector,
    make_tangent,
    membership_tol,
    random_simplex_point,
    random_tangent,
)


class TestDirectionalDerivative:
    def test_constant_map_is_flat(self, rng):
        p = random_simplex_point(rng, 5)
        w = make_tangent(p, rng.standard_normal(5)).comps
        v = random_tangent(rng, p)
        np.testing.assert_allclose(directional_derivative(lambda _: w, p, v), 0.0, atol=1e-10)

    def test_linear_field(self, rng):
        # W(p) = (p_0 - p_1, p_1 - p_0): exact derivative along v=(1,-1) is (2,-2)
        def W(p):
            return np.array([p.coords[0] - p.coords[1], p.coords[1] - p.coords[0]])

        for coords in ([0.5, 0.5], [0.3, 0.7]):
            p = SimplexPoint(np.array(coords))
            v = make_tangent(p, np.array([1.0, -1.0]))
            np.testing.assert_allclose(directional_derivative(W, p, v), [2.0, -2.0], atol=1e-9)

    def test_step_underflow_near_boundary(self):
        eps = 1e-9
        p = SimplexPoint(np.array([eps, 0.5, 0.5 - eps]))
        v = make_tangent(p, np.array([-1.0, 0.5, 0.5]))
        with pytest.raises(StepUnderflow):
            directional_derivative(lambda _: np.array([1.0, 0.0, -1.0]), p, v)


def _swap(_):
    """The constant field (1, -1)."""
    return np.array([1.0, -1.0])


class TestAlphaConnection:
    @pytest.mark.parametrize("q", [1.0, 0.5, np.inf, np.nan])
    def test_exponent_outside_open_interval_is_typed(self, half_half, q):
        with pytest.raises(InvalidExponent) as err:
            alpha_connection(_swap, _swap, half_half, q=q)
        assert isinstance(err.value, SimplexGeoError)

    def test_symmetric_cancellation(self, half_half):
        out = alpha_connection(_swap, _swap, half_half, q=2.0)
        np.testing.assert_allclose(out.comps, 0.0, atol=1e-9)

    def test_skewed_example(self):
        # constant V=W=(1,-1) at p=(1/4,3/4), q=2: correction is
        # (1/2)((4, 4/3) - (16/3)(1/4, 3/4)) = (4/3, -4/3), so result (-4/3, 4/3)
        p = SimplexPoint(np.array([0.25, 0.75]))
        out = alpha_connection(_swap, _swap, p, q=2.0)
        np.testing.assert_allclose(out.comps, [-4.0 / 3.0, 4.0 / 3.0], rtol=1e-9)

    def test_zero_first_argument(self, rng):
        p = random_simplex_point(rng, 6)
        w = random_tangent(rng, p).comps
        out = alpha_connection(lambda _: np.zeros(6), lambda _: w, p, q=3.0)
        np.testing.assert_allclose(out.comps, 0.0, atol=1e-10)

    def test_output_zero_sum_random_fields(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 17))
            p = random_simplex_point(rng, dim)
            const = make_tangent(p, rng.standard_normal(dim)).comps

            def poly(pt, c=rng.standard_normal(dim)):
                return c * pt.coords

            out = alpha_connection(lambda _: const, poly, p, q=float(rng.uniform(1.2, 5.0)))
            assert abs(float(out.comps.sum())) <= 1e-10

    def test_lp_ascent_fields_are_accepted(self):
        # In 76 of these legal draws the raw output sums to more than 1e-10 * max(1, max |raw|),
        # a finite-difference residue that make_tangent projects away.
        for seed in range(200):
            rng = np.random.default_rng(seed)
            obj = LinearObjective(100.0 * rng.uniform(-1.0, 1.0, size=2))
            p = random_simplex_point(rng, 2)
            v = random_tangent(rng, p).comps
            out = alpha_connection(lambda _: v, lambda pt: gradient_field(obj, pt.coords), p, 3.0)
            assert isinstance(out, TangentVector)
            assert abs(float(out.comps.sum())) <= membership_tol(2)


class TestEGeodesic:
    def test_exponents_from_velocity(self, half_half):
        v0 = make_tangent(half_half, np.array([0.5, -0.5]))
        geo = make_e_geodesic(half_half, v0)
        np.testing.assert_array_equal(geo.a, [1.0, -1.0])

    def test_zero_velocity_constant(self, half_half):
        geo = make_e_geodesic(half_half, make_tangent(half_half, np.zeros(2)))
        for t in (-3.0, 0.0, 7.5):
            np.testing.assert_allclose(geo(t).coords, half_half.coords, atol=1e-15)

    def test_base_mismatch(self, rng):
        p, r = random_simplex_point(rng, 4), random_simplex_point(rng, 4)
        with pytest.raises(BaseMismatch):
            make_e_geodesic(p, random_tangent(rng, r))

    def test_lossy_start_rejected(self):
        p = SimplexPoint(np.array([0.4, 0.4]), tail_bound=0.2)
        with pytest.raises(LossyTruncation):
            make_e_geodesic(p, make_tangent(p, np.array([0.1, -0.1])))

    def test_exponent_length_mismatch(self, half_half):
        with pytest.raises(LengthMismatch, match="exponent vector has length 3, point has dim 2"):
            EGeodesic(half_half, np.array([1.0, -1.0, 0.0]))

    def test_closed_form_value(self, half_half):
        # with a=(1,-1), p_0(t) = e^{2t}/(e^{2t}+1); e^{2t}=3 at t=ln(3)/2
        geo = EGeodesic(half_half, np.array([1.0, -1.0]))
        t = 0.5 * np.log(3.0)
        np.testing.assert_allclose(geo(t).coords, [0.75, 0.25], rtol=1e-15)

    def test_t_zero_returns_start(self, rng):
        p0 = random_simplex_point(rng, 8)
        geo = make_e_geodesic(p0, random_tangent(rng, p0))
        np.testing.assert_allclose(geo(0.0).coords, p0.coords, rtol=0, atol=1e-15)

    def test_gauge_invariance(self, rng):
        for mu in (-3.0, 5.0):
            p0 = random_simplex_point(rng, 6)
            geo = make_e_geodesic(p0, random_tangent(rng, p0))
            shifted = EGeodesic(p0, geo.a + mu)
            for t in (-1.0, 0.3, 2.0):
                np.testing.assert_allclose(
                    shifted(t).coords, geo(t).coords, rtol=0, atol=1e-14
                )

    def test_completeness_far_times(self, half_half):
        geo = EGeodesic(half_half, np.array([1.0, -1.0]))
        far = geo(1e4)
        assert float(far.coords.sum()) == 1.0
        assert far.coords.min() == np.finfo(float).tiny
        assert far.coords.max() == 1.0
        near = geo(-1e4)
        assert float(near.coords.sum()) == 1.0
        assert near.coords.min() > 0.0

    def test_validity_across_scales(self, rng):
        p0 = random_simplex_point(rng, 8)
        geo = make_e_geodesic(p0, random_tangent(rng, p0, max_ratio=1.0))
        for t in (-1e4, -10.0, -0.1, 0.1, 10.0, 1e4):
            pt = geo(t)
            assert float(pt.coords.sum()) == 1.0
            assert pt.coords.min() > 0.0

    def test_non_finite_time(self, half_half):
        geo = EGeodesic(half_half, np.array([1.0, -1.0]))
        with pytest.raises(NonFiniteInput):
            e_geodesic_eval(geo, np.inf)


class TestEConnectionResidual:
    def test_geodesics_annihilate(self, rng):
        for _ in range(50):
            dim = int(rng.integers(2, 33))
            p0 = random_simplex_point(rng, dim)
            v0 = random_tangent(rng, p0, max_ratio=0.5)
            geo = make_e_geodesic(p0, v0)
            t = float(rng.uniform(-0.5, 0.5))
            assert np.abs(e_connection_residual(geo, t)).max() <= 1e-6

    def test_fisher_rao_geodesic_is_not_e_geodesic(self, half_half):
        r = SimplexPoint(np.array([0.9, 0.1]))
        residual = e_connection_residual(lambda t: fr_geodesic(half_half, r, t), 0.5)
        assert np.abs(residual).max() > 1e-2

    def test_constant_curve(self, rng):
        p = random_simplex_point(rng, 5)
        residual = e_connection_residual(lambda t: p, 0.0)
        np.testing.assert_allclose(residual, 0.0, atol=1e-15)

    def test_curve_error_propagates_unchanged(self, half_half):
        # The residual calls the curve directly, so a curve's own typed error surfaces as is.
        geo = EGeodesic(half_half, np.array([1.0, -1.0]))
        with pytest.raises(NonFiniteInput, match="time inf is not finite"):
            e_connection_residual(geo, np.inf)

    def test_overflowing_defect_is_typed(self, recwarn):
        # Exponents of order 1e6 flush coordinates to TINY within one step,
        # and the velocity divided by them overflows.
        p0 = SimplexPoint(np.full(3, 1.0 / 3.0))
        geo = EGeodesic(p0, np.array([3e6, -1.5e6, -1.5e6]))
        with pytest.raises(CurveDomain, match="not finite"):
            e_connection_residual(geo, 0.0)
        assert not recwarn.list


class TestLeibnizRule:
    def test_scalar_times_constant_vector(self, rng):
        # covariant derivative along the curve of f W splits as
        # (d/dt f) W + f (covariant derivative of W) because W is zero-sum
        for _ in range(5):
            dim = int(rng.integers(2, 9))
            p0 = random_simplex_point(rng, dim)
            geo = make_e_geodesic(p0, random_tangent(rng, p0, max_ratio=0.5))
            w0 = random_tangent(rng, p0).comps
            h, t = CURVE_STEP, 0.2

            def f(s):
                return float(geo(s).coords[0])

            lhs = e_covariant_along_curve(geo, lambda s: f(s) * w0, t)
            df = (f(t + h) - f(t - h)) / (2.0 * h)
            nabla_w = e_covariant_along_curve(geo, lambda s: w0, t)
            rhs = df * w0 + f(t) * nabla_w
            np.testing.assert_allclose(lhs, rhs, atol=2e-6)
