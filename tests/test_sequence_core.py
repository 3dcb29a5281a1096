import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simplexgeo.errors import (
    DimensionTooSmall,
    InvalidExponent,
    InvalidParameter,
    LengthMismatch,
    NonPositiveCoordinate,
    NotNormalizable,
    NoTailModel,
    RatioOutOfRange,
)
from simplexgeo.sequence_core import (
    SequenceSpec,
    SimplexPoint,
    TangentVector,
    lq_norm,
    make_simplex_point,
    make_tangent,
    membership_tol,
    random_simplex_point,
    refine,
    softmax_coords,
)


class TestMakeSimplexPoint:
    def test_uniform_n2(self):
        p = make_simplex_point(SequenceSpec("uniform", 2))
        np.testing.assert_array_equal(p.coords, [0.5, 0.5])
        assert p.tail_bound == 0.0

    def test_geometric_half_n3_normalized(self):
        # normalizing (1, 1/2, 1/4) gives (4/7, 2/7, 1/7)
        expect = [Fraction(4, 7), Fraction(2, 7), Fraction(1, 7)]
        p = make_simplex_point(SequenceSpec("geometric", 3, ratio=0.5))
        np.testing.assert_allclose(p.coords, [float(f) for f in expect], rtol=0, atol=1e-15)
        assert p.tail_bound == 0.0

    def test_explicit_negative_coordinate(self):
        spec = SequenceSpec("explicit", 3, coords=np.array([0.3, -0.1, 0.8]))
        with pytest.raises(NonPositiveCoordinate):
            make_simplex_point(spec)

    def test_all_zero_explicit(self):
        spec = SequenceSpec("explicit", 2, coords=np.array([0.0, 0.0]))
        with pytest.raises(NotNormalizable):
            make_simplex_point(spec)

    def test_dim_too_small(self):
        with pytest.raises(DimensionTooSmall):
            SequenceSpec("uniform", 1)

    def test_geometric_unnormalized_tail(self):
        # scaled into the simplex, the truncated geometric keeps 1 - r^N of
        # the mass, so the recorded tail bound is r^N
        p = make_simplex_point(SequenceSpec("geometric", 4, ratio=0.5, normalize="none"))
        assert p.tail_bound == pytest.approx(0.5**4, abs=0)
        assert p.mass() == pytest.approx(1.0 - 0.5**4, abs=1e-15)

    def test_bad_ratio(self):
        with pytest.raises(RatioOutOfRange):
            SequenceSpec("geometric", 4, ratio=1.5)

    def test_unnormalized_explicit_within_tolerance_kept(self):
        coords = np.array([0.2, 0.3, 0.5 + 1e-12])
        p = make_simplex_point(SequenceSpec("explicit", 3, coords=coords, normalize="none"))
        assert np.array_equal(p.coords, coords) and p.tail_bound == 0.0

    def test_unnormalized_explicit_off_unit_sum_rejected(self):
        spec = SequenceSpec("explicit", 3, coords=np.array([0.2, 0.3, 0.6]), normalize="none")
        with pytest.raises(NotNormalizable, match="pass normalize='simplex' to rescale"):
            make_simplex_point(spec)

    def test_membership_invariants(self, rng):
        for dim in (2, 5, 64):
            p = random_simplex_point(rng, dim)
            assert abs(p.coords.sum() - 1.0) <= 1e-12
            assert p.coords.min() > 0.0


class TestMakeTangent:
    def test_already_zero_sum_unchanged(self, half_half):
        raw = np.array([1.0, -1.0])
        v = make_tangent(half_half, raw)
        np.testing.assert_array_equal(v.comps, raw)

    def test_mean_subtraction(self, half_half):
        v = make_tangent(half_half, np.array([1.0, 0.0]))
        np.testing.assert_allclose(v.comps, [0.5, -0.5], rtol=0, atol=0)

    def test_length_mismatch(self, half_half):
        with pytest.raises(LengthMismatch):
            make_tangent(half_half, np.array([1.0, 0.0, -1.0]))

    def test_block_rejected_by_shape_before_its_projection_is_checked(self):
        # The flattened projection fails the zero-sum rule, but the shape is the first error.
        base = SimplexPoint(np.array([0.1, 0.2, 0.3, 0.4]))
        with pytest.raises(DimensionTooSmall, match="one-dimensional"):
            make_tangent(base, np.array([[1e300, -1e300], [1.0, 0.0]]))

    def test_idempotent_bitwise(self, rng):
        for _ in range(200):
            dim = int(rng.integers(2, 40))
            p = random_simplex_point(rng, dim)
            v = make_tangent(p, rng.standard_normal(dim) * rng.uniform(0.1, 10))
            again = make_tangent(p, v.comps)
            assert np.array_equal(again.comps, v.comps)


class TestLqNorm:
    def test_three_four_five(self):
        assert lq_norm([3.0, 4.0], 2.0) == 5.0

    def test_zero_vector(self):
        assert lq_norm(np.zeros(5), 3.7) == 0.0

    def test_cube_root_of_three(self):
        assert lq_norm([1.0, 1.0, 1.0], 3.0) == pytest.approx(3.0 ** (1.0 / 3.0), rel=1e-15)

    def test_bad_exponent(self):
        with pytest.raises(InvalidExponent):
            lq_norm([1.0], 1.0)

    @given(
        st.lists(st.floats(-10, 10), min_size=2, max_size=64),
        st.lists(st.floats(-10, 10), min_size=2, max_size=64),
        st.floats(1.01, 8.0),
    )
    def test_triangle_inequality(self, a, b, q):
        n = min(len(a), len(b))
        x, y = np.array(a[:n]), np.array(b[:n])
        assert lq_norm(x + y, q) <= lq_norm(x, q) + lq_norm(y, q) + 1e-12

    @given(
        st.lists(st.floats(-10, 10), min_size=2, max_size=64),
        st.floats(-5, 5),
        st.floats(1.01, 8.0),
    )
    def test_absolute_homogeneity(self, a, s, q):
        x = np.array(a)
        assert lq_norm(s * x, q) == pytest.approx(abs(s) * lq_norm(x, q), rel=1e-12, abs=1e-12)


class TestRefine:
    def test_geometric_template_tails(self):
        # raw template (1, r, r^2, ...) discards exactly r^N / (1 - r)
        spec = SequenceSpec("geometric", 4, ratio=0.5)
        assert spec.tail_sum(4) == pytest.approx((1 / 16) / (1 / 2), abs=0)
        assert spec.tail_sum(8) == pytest.approx(1 / 128, abs=0)
        points = refine(spec, [4, 8])
        assert [p.dim for p in points] == [4, 8]
        assert all(p.tail_bound == 0.0 for p in points)

    @given(st.floats(1e-6, 1.0 - 1e-6))
    def test_tail_from_zero_is_the_infinite_total(self, ratio):
        assert SequenceSpec("geometric", 4, ratio=ratio).tail_sum(0) == 1.0 / (1.0 - ratio)

    @pytest.mark.parametrize("kind", ["uniform", "explicit"])
    def test_tail_needs_a_tail_model(self, kind):
        spec = SequenceSpec(kind, 2, coords=np.array([0.5, 0.5]) if kind == "explicit" else None)
        with pytest.raises(NoTailModel, match=f"{kind} specs have no analytic tail"):
            spec.tail_sum(0)

    def test_unnormalized_tail_bounds(self):
        spec = SequenceSpec("geometric", 4, ratio=0.5, normalize="none")
        points = refine(spec, [4, 8])
        assert points[0].tail_bound == pytest.approx(0.5**4, abs=0)
        assert points[1].tail_bound == pytest.approx(0.5**8, abs=0)

    def test_explicit_has_no_tail(self):
        spec = SequenceSpec("explicit", 2, coords=np.array([0.5, 0.5]))
        with pytest.raises(NoTailModel):
            refine(spec, [2, 4])

    def test_decreasing_dims_rejected(self):
        spec = SequenceSpec("geometric", 4, ratio=0.5)
        for dims in ([8, 4], [4, 4]):
            with pytest.raises(InvalidParameter, match="dims must be strictly increasing"):
                refine(spec, dims)

    @pytest.mark.parametrize("ratio", [0.3, 0.5, 0.9])
    def test_successive_diffs_shrink(self, ratio):
        spec = SequenceSpec("geometric", 8, ratio=ratio)
        pts = refine(spec, [8, 16, 32, 64])
        diffs = []
        for lo, hi in zip(pts, pts[1:]):
            padded = np.zeros(hi.dim)
            padded[: lo.dim] = lo.coords
            diffs.append(lq_norm(padded - hi.coords, 2.0))
        assert all(a > b for a, b in zip(diffs, diffs[1:]))


class TestSpecSerialization:
    def test_from_json(self):
        obj = {"kind": "geometric", "dim": 6, "ratio": 0.25, "normalize": "none"}
        assert SequenceSpec.from_json(obj) == SequenceSpec("geometric", 6, ratio=0.25, normalize="none")

    def test_explicit_from_json(self):
        spec = SequenceSpec.from_json({"kind": "explicit", "dim": 2, "coords": [0.25, 0.75]})
        assert spec.normalize == "simplex"
        np.testing.assert_array_equal(spec.coords, [0.25, 0.75])

    def test_sphere_normalization_is_unknown(self):
        with pytest.raises(NotNormalizable, match="unknown normalization 'sphere'"):
            SequenceSpec.from_json({"kind": "uniform", "dim": 3, "normalize": "sphere", "q": 3.0})

    @pytest.mark.parametrize("dim", [4.0, True, "4"])
    def test_dim_must_be_a_json_integer(self, dim):
        with pytest.raises(InvalidParameter, match="dim must be a JSON integer"):
            SequenceSpec.from_json({"kind": "uniform", "dim": dim})


class TestSoftmaxCoords:
    def test_exact_unit_sum(self, rng):
        for _ in range(500):
            dim = int(rng.integers(2, 64))
            logs = rng.uniform(-300, 300, size=dim)
            x = softmax_coords(logs)
            assert float(x.sum()) == 1.0
            assert x.min() > 0.0

    # Small integer log-weights, often tied, times 1, ln 2 or 1e-8, with one
    # coordinate optionally flushed to TINY: rows whose first sum often misses
    # 1.0 and that need a second round or a reverted bump.  The examples take
    # those paths: a second round; reverted bumps beside a flushed coordinate,
    # at scales 1 and 1e-8; a second round with reverted bumps.
    @settings(max_examples=300)
    @given(
        ints=st.lists(st.integers(-4, 4), min_size=2, max_size=8),
        scale=st.sampled_from([1.0, math.log(2.0), 1e-8]),
        flush=st.none() | st.integers(0, 7),
    )
    @example(ints=[-1, 1, 4, 2, -2], scale=math.log(2.0), flush=None)
    @example(ints=[1, 2, 0, 0, 4, 3], scale=1.0, flush=2)
    @example(ints=[-4, 0, -3, 3, -4], scale=1e-8, flush=1)
    @example(ints=[-2, 1, -3, 4, 2, -2], scale=1.0, flush=None)
    def test_exact_unit_sum_after_fix_up_rounds(self, ints, scale, flush):
        logs = np.array(ints, dtype=float) * scale
        if flush is not None:
            logs[flush % logs.size] = -1e6
        x = softmax_coords(logs)
        assert float(x.sum()) == 1.0
        assert x.min() > 0.0

    def test_underflow_flush(self):
        x = softmax_coords(np.array([0.0, -1e6]))
        assert x[1] == np.finfo(float).tiny
        assert float(x.sum()) == 1.0


class TestTypeInvariants:
    def test_tangent_rejects_biased_vector(self, half_half):
        with pytest.raises(NotNormalizable):
            TangentVector(half_half, np.array([1.0, 0.0]))

    def test_simplex_rejects_bad_sum(self):
        with pytest.raises(NotNormalizable):
            SimplexPoint(np.array([0.4, 0.4]))

    def test_tolerance_scales_with_dim(self):
        assert membership_tol(64) == 64e-12

    def test_coords_are_immutable(self, half_half):
        with pytest.raises(ValueError):
            half_half.coords[0] = 0.3
