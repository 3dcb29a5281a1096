import numpy as np
import pytest

from simplexgeo import flows
from simplexgeo.errors import (
    DimensionMismatch,
    GridTooLarge,
    InvalidGrid,
    InvalidParameter,
    PositivityLost,
    SimplexGeoError,
)
from simplexgeo.flows import (
    MAX_GRID_ROWS,
    LinearObjective,
    Trajectory,
    flow_closed_form,
    flow_geodesic_correspondence,
    flow_ode_residual,
    flow_trajectory,
    gradient_field,
    integrate_rk4,
    objective_value,
    solve_lp,
    time_grid,
)
from simplexgeo.metrics import fr_inner
from simplexgeo.sequence_core import (
    SequenceSpec,
    SimplexPoint,
    make_simplex_point,
    make_tangent,
    random_simplex_point,
    random_tangent,
    softmax_rows,
)


def uniform(dim):
    return make_simplex_point(SequenceSpec("uniform", dim))


class TestObjectiveValue:
    def test_basic(self, half_half):
        assert objective_value(LinearObjective(np.array([1.0, 0.0])), half_half) == 0.5

    def test_near_vertex(self):
        eps = 1e-9
        p = SimplexPoint(np.array([1.0 - eps, eps]))
        val = objective_value(LinearObjective(np.array([1.0, 0.0])), p)
        assert val == pytest.approx(1.0 - eps, abs=1e-16)

    def test_constant_objective(self, rng):
        kappa = 3.25
        obj = LinearObjective(np.full(7, kappa))
        for _ in range(5):
            assert objective_value(obj, random_simplex_point(rng, 7)) == pytest.approx(
                kappa, rel=1e-15
            )

    def test_dim_mismatch(self, half_half):
        with pytest.raises(DimensionMismatch):
            objective_value(LinearObjective(np.array([1.0, 0.0, 0.0])), half_half)

    def test_strictly_decreasing_flag(self):
        assert LinearObjective(np.array([3.0, 2.0, 1.0])).strictly_decreasing
        assert not LinearObjective(np.array([3.0, 3.0, 1.0])).strictly_decreasing


class TestGradientField:
    def test_basic_example(self, half_half):
        w = gradient_field(LinearObjective(np.array([1.0, 0.0])), half_half.coords)
        np.testing.assert_allclose(w, [0.25, -0.25], rtol=0, atol=0)

    def test_constant_objective_vanishes(self, rng):
        obj = LinearObjective(np.full(5, 2.0))
        p = random_simplex_point(rng, 5)
        np.testing.assert_allclose(gradient_field(obj, p.coords), 0.0, atol=1e-16)

    def test_chain_identity(self, rng):
        # with the 1/4 metric the dual of dF is 4W: fr_inner(4W, v) = <c, v>
        for _ in range(30):
            dim = int(rng.integers(2, 33))
            obj = LinearObjective(rng.uniform(-1.0, 1.0, size=dim))
            p = random_simplex_point(rng, dim)
            v = random_tangent(rng, p)
            four_w = make_tangent(p, 4.0 * gradient_field(obj, p.coords))
            lhs = fr_inner(four_w, v)
            rhs = float(np.dot(obj.c, v.comps))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestFlowClosedForm:
    def test_two_point_value(self, half_half):
        obj = LinearObjective(np.array([1.0, 0.0]))
        out = flow_closed_form(obj, half_half, np.log(3.0))
        np.testing.assert_allclose(out.coords, [0.75, 0.25], rtol=1e-15)

    def test_t_zero(self, rng):
        p0 = random_simplex_point(rng, 6)
        obj = LinearObjective(rng.standard_normal(6))
        np.testing.assert_allclose(flow_closed_form(obj, p0, 0.0).coords, p0.coords, atol=1e-15)

    def test_long_time_vertex_limit(self):
        obj = LinearObjective(np.array([3.0, 2.0, 1.0]))
        p = flow_closed_form(obj, uniform(3), 1e4)
        assert p.coords[0] == 1.0
        assert p.coords[1] == np.finfo(float).tiny

    def test_ode_residual(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 33))
            obj = LinearObjective(rng.uniform(-1.0, 1.0, size=dim))
            p0 = random_simplex_point(rng, dim)
            t = float(rng.uniform(0.0, 3.0))
            assert flow_ode_residual(obj, p0, t) <= 1e-6

    def test_objective_monotone(self, rng):
        obj = LinearObjective(rng.standard_normal(8))
        p0 = random_simplex_point(rng, 8)
        traj = flow_trajectory(obj, p0, np.linspace(0.0, 5.0, 1000))
        assert np.diff(traj.objective).min() >= -1e-12

    @pytest.mark.parametrize("ratio", [0.5, 0.9, 0.99])
    @pytest.mark.parametrize("dim", [8, 64, 256])
    @pytest.mark.parametrize("decay", [0.5, 0.9])
    def test_truncation_commutes_with_the_flow(self, ratio, dim, decay):
        # Conditioning on the first N coordinates commutes with softmax, so the 2N-flow's
        # head is (1 - tail_N) times the N-flow from the renormalised head, and the
        # zero-padded N-flow lies exactly 2 tail_N(t) from the 2N-flow in l1.
        p = make_simplex_point(SequenceSpec("geometric", 2 * dim, ratio=ratio))
        head = p.coords[:dim]
        c = decay ** np.arange(2 * dim, dtype=float)
        times = np.linspace(0.0, 50.0, 201)
        long = softmax_rows(p, c, times)
        short = softmax_rows(SimplexPoint(head / head.sum()), c[:dim], times)
        l1 = np.abs(np.pad(short, ((0, 0), (0, dim))) - long).sum(axis=1)
        tail = long[:, dim:].sum(axis=1)
        assert np.abs(l1 - 2.0 * tail).max() <= 2 * dim * np.finfo(float).eps


class TestIntegrateRk4:
    def test_matches_closed_form(self, half_half):
        obj = LinearObjective(np.array([1.0, 0.0]))
        traj = integrate_rk4(obj, half_half, t_max=2.0, dt=1e-3)
        expect = flow_closed_form(obj, half_half, 2.0)
        assert np.abs(traj.coords[-1] - expect.coords).sum() <= 1e-6

    def test_zero_field_constant(self, rng):
        p0 = random_simplex_point(rng, 4)
        traj = integrate_rk4(LinearObjective(np.zeros(4)), p0, t_max=0.5, dt=0.05)
        for row in traj.coords:
            np.testing.assert_allclose(row, p0.coords, atol=1e-15)

    def test_stiff_objective_loses_positivity(self):
        obj = LinearObjective(np.array([50.0, 0.0]))
        with pytest.raises(PositivityLost):
            integrate_rk4(obj, uniform(2), t_max=5.0, dt=1.0)

    def test_renormalization_drift_small(self, rng):
        obj = LinearObjective(rng.uniform(-1, 1, size=6))
        traj = integrate_rk4(obj, uniform(6), t_max=1.0, dt=1e-2)
        assert traj.residual_l1.max() <= 1e-12

    def test_oversized_grid_rejected_before_the_first_step(self, monkeypatch):
        def field(obj, x):
            raise AssertionError("no step may run")

        monkeypatch.setattr(flows, "gradient_field", field)
        with pytest.raises(GridTooLarge):
            integrate_rk4(LinearObjective(np.ones(4)), uniform(4), t_max=1e12, dt=1.0)

    @pytest.mark.parametrize("t_max, dt", [(-1.0, 0.1), (1.0, 0.0), (1.0, -0.1)])
    def test_invalid_grid_rejected_before_the_first_step(self, monkeypatch, t_max, dt):
        def field(obj, x):
            raise AssertionError("no step may run")

        monkeypatch.setattr(flows, "gradient_field", field)
        with pytest.raises(InvalidGrid):
            integrate_rk4(LinearObjective(np.ones(4)), uniform(4), t_max=t_max, dt=dt)


class TestTimeGrid:
    def test_row_limit(self):
        assert MAX_GRID_ROWS == 10**6
        assert time_grid(MAX_GRID_ROWS - 1.0, 1.0).size == MAX_GRID_ROWS
        with pytest.raises(GridTooLarge):
            time_grid(float(MAX_GRID_ROWS), 1.0)

    @pytest.mark.parametrize("t_max, dt", [(1.0, 1e-300), (1e300, 1e-300), (1e12, 1.0)])
    def test_non_finite_or_huge_ratio_rejected(self, t_max, dt):
        with pytest.raises(GridTooLarge):
            time_grid(t_max, dt)

    @pytest.mark.parametrize(
        "t_max, dt",
        [(-1.0, 0.1), (-1.0, -0.1), (1.0, 0.0), (1.0, -0.1), (1.0, np.nan), (np.nan, 0.1),
         (1.0, np.inf)],
    )
    def test_step_and_horizon_rule(self, t_max, dt):
        with pytest.raises(InvalidGrid) as err:
            time_grid(t_max, dt)
        assert isinstance(err.value, SimplexGeoError)

    def test_zero_horizon_is_one_row(self):
        np.testing.assert_array_equal(time_grid(0.0, 0.1), [0.0])


class TestSolveLp:
    def test_two_point(self, half_half):
        obj = LinearObjective(np.array([1.0, 0.0]))
        limit, report = solve_lp(obj, half_half, tol=1e-6)
        assert report.converged
        assert limit.coords[0] >= 1.0 - 1e-6
        assert objective_value(obj, limit) >= 1.0 - 1e-6

    def test_three_coefficients_rate(self):
        obj = LinearObjective(np.array([3.0, 2.0, 1.0]))
        limit, report = solve_lp(obj, uniform(3), tol=1e-8)
        assert report.converged
        assert limit.coords[0] == pytest.approx(1.0, abs=1e-8)
        assert limit.coords[1] < 1e-8
        assert limit.coords[2] < 1e-16
        assert report.rate == pytest.approx(obj.gap, rel=0.05)
        assert report.rate_rel_err <= 0.05

    # The rate fit's last decade of decay spans at least one ulp of its start
    # even here: a gap of 1e12, a gap of 1e-3, and a leading coordinate of
    # 1e-300, at tolerances from 1e-14 to 1e-10.
    @pytest.mark.parametrize(
        "c, p0, tol",
        [
            ([1e12, 0.0, -1.0], [1e-300, 0.5, 0.5], 1e-14),
            ([1.0, 0.0], [1e-300, 1.0], 1e-10),
            ([1e-3, 0.0, -1e-3], [0.2, 0.3, 0.5], 1e-12),
        ],
        ids=["gap-1e12-tiny-start", "two-point-tiny-start", "gap-1e-3"],
    )
    def test_rate_at_extremes(self, c, p0, tol):
        _, report = solve_lp(LinearObjective(np.array(c)), SimplexPoint(np.array(p0)), tol=tol)
        assert report.converged
        assert report.rate_rel_err <= 0.05

    def test_constant_objective_advisory(self):
        obj = LinearObjective(np.full(4, 1.0))
        limit, report = solve_lp(obj, uniform(4), tol=1e-6)
        assert not report.converged
        assert report.advisory is not None and "NotStrictlyDecreasing" in report.advisory
        np.testing.assert_allclose(limit.coords, 0.25, atol=1e-15)

    @pytest.mark.parametrize("tol", [0.0, -1e-6])
    def test_non_positive_tol_is_typed(self, half_half, tol):
        with pytest.raises(InvalidParameter, match="tol must be positive"):
            solve_lp(LinearObjective(np.array([1.0, 0.0])), half_half, tol=tol)

    def test_report_serializable(self, half_half):
        import json

        _, report = solve_lp(LinearObjective(np.array([1.0, 0.0])), half_half, tol=1e-6)
        payload = json.dumps(report.to_dict())
        assert "converged" in payload


def bisect_80_steps(obj, p0, level, lo, hi):
    """The crossing time as the bisection took it before it stopped at adjacent floats."""
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if flows._vertex_distance(obj, p0, mid) > level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestCrossingTime:
    # Objectives as the benchmark's lp command draws them: c_0 = 1, two gaps
    # in [0.3, 0.6], then gaps of about 1/N; gamma-distributed starts.
    @pytest.mark.parametrize("n", [8, 64, 256, 1024])
    @pytest.mark.parametrize("tol", [1e-12, 1e-8, 1e-3])
    def test_stopping_at_adjacent_floats_keeps_the_80_step_bits(self, n, tol):
        rng = np.random.default_rng(n)
        gaps = np.concatenate((rng.uniform(0.3, 0.6, 2), rng.uniform(0.5, 1.5, n - 3) / n))
        obj = LinearObjective(1.0 - np.concatenate(([0.0], np.cumsum(gaps))))
        g = rng.gamma(2.0, size=n)
        p0 = SimplexPoint(g / g.sum())
        _, report = solve_lp(obj, p0, tol)
        level_lo = max(tol, 1e-11)
        calls = []
        distance = flows._vertex_distance
        t_hi = bisect_80_steps(obj, p0, 10.0 * level_lo, 0.0, report.t_final)
        t_lo = bisect_80_steps(obj, p0, level_lo, t_hi, report.t_final)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(flows, "_vertex_distance", lambda *args: calls.append(1) or distance(*args))
            got_hi = flows._crossing_time(obj, p0, 10.0 * level_lo, 0.0, report.t_final)
            got_lo = flows._crossing_time(obj, p0, level_lo, t_hi, report.t_final)
        assert (got_hi, got_lo) == (t_hi, t_lo)
        assert len(calls) <= 160 - 53


class TestFlowGeodesicCorrespondence:
    def test_default_grid(self, half_half):
        obj = LinearObjective(np.array([1.0, 0.0]))
        assert flow_geodesic_correspondence(obj, half_half) <= 1e-12

    def test_constant_objective(self, rng):
        # both curves are constant; the flow shifts every log weight by c t
        # before the softmax, so the curves agree to rounding, not bitwise
        obj = LinearObjective(np.full(5, 2.0))
        p0 = random_simplex_point(rng, 5)
        assert flow_geodesic_correspondence(obj, p0) <= 1e-14

    def test_random_instances(self, rng):
        for _ in range(20):
            obj = LinearObjective(rng.standard_normal(16))
            p0 = random_simplex_point(rng, 16)
            assert flow_geodesic_correspondence(obj, p0) <= 1e-12


class TestTrajectory:
    def test_block_must_be_two_dimensional(self, half_half):
        with pytest.raises(DimensionMismatch):
            Trajectory(np.array([0.0]), half_half.coords, None, np.zeros(1))

    def test_residual_count_enforced(self, half_half):
        with pytest.raises(DimensionMismatch):
            Trajectory(np.array([0.0, 1.0]), np.array([half_half.coords] * 2), None, np.zeros(3))

    def test_objective_dimension_enforced(self, half_half):
        obj = LinearObjective(np.ones(3))
        with pytest.raises(DimensionMismatch):
            Trajectory(np.array([0.0]), np.array([half_half.coords]), obj, np.zeros(1))

    def test_coords_block_is_read_only(self, rng):
        obj = LinearObjective(rng.standard_normal(4))
        traj = flow_trajectory(obj, random_simplex_point(rng, 4), np.linspace(0.0, 1.0, 5))
        assert traj.coords.shape == (5, 4)
        with pytest.raises(ValueError):
            traj.coords[0, 0] = 0.5

    def test_objective_column_is_objective_value_per_row(self, rng):
        obj = LinearObjective(rng.standard_normal(16))
        p0 = random_simplex_point(rng, 16)
        times = np.linspace(0.0, 3.0, 31)
        closed = flow_trajectory(obj, p0, times)
        expect = [objective_value(obj, flow_closed_form(obj, p0, t)) for t in times]
        assert closed.objective.tolist() == expect
        rk4 = integrate_rk4(obj, p0, t_max=3.0, dt=0.1)
        expect = [objective_value(obj, SimplexPoint(row)) for row in rk4.coords]
        assert rk4.objective.tolist() == expect

    def test_length_agreement_enforced(self, half_half):
        with pytest.raises(DimensionMismatch):
            Trajectory(np.array([0.0, 1.0]), np.array([half_half.coords]), None, np.zeros(2))

    def test_times_strictly_increasing(self, half_half):
        with pytest.raises(InvalidGrid, match="times must be strictly increasing"):
            Trajectory(np.array([0.0, 0.0]), np.array([half_half.coords] * 2), None, np.zeros(2))
