from simplexgeo import cli, flows, hamiltonian
import pytest

from simplexgeo.checks import check_all, check_flows, check_hamiltonian, check_sequence_core

# The bounds check-all reports, in order.  Written out here so a loosened
# bound in the code fails this test instead of passing unnoticed.
CHECK_ALL_BOUNDS = [
    ("make_tangent idempotent (bitwise)", 0.0),
    ("lq_norm triangle defect", 1e-12),
    ("refine successive-diff decrease", 0.0),
    ("root transform round trip", 1e-14),
    ("square-root isometry residual", 1e-12),
    ("q-root scaled-isometry rel residual", 1e-10),
    ("finsler(q=2) vs 2 sqrt(fr_inner)", 1e-12),
    ("fr_distance triangle defect", 1e-12),
    ("fr_geodesic endpoint error", 1e-12),
    ("geodesic quadrature length error", 1e-4),
    ("e-geodesic equation residual", 1e-6),
    ("e-geodesic gauge invariance", 1e-14),
    ("alpha-connection tangency", 1e-10),
    ("flow ODE residual (l1)", 1e-6),
    ("flow vs e-geodesic deviation (l1)", 1e-12),
    ("metric-normalization chain identity", 1e-12),
    ("rk4 oracle endpoint error (l1)", 1e-6),
    ("poisson brackets max abs", 1e-8),
    ("first-integral conservation drift", 1e-10),
    ("gram determinant positivity", 0.0),
    ("kahler field identity residual", 1e-10),
    ("canonical pair bracket error", 1e-10),
]


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_check_all_bounds_pinned(dim):
    results = check_all(dim, 0)
    assert [(r.name, r.threshold) for r in results] == CHECK_ALL_BOUNDS
    assert all(r.passed for r in results)


@pytest.mark.parametrize("dim", [269, 1000])
def test_sequence_core_checks_pass_where_ratio_one_half_underflows(dim):
    # At 4 dim >= 1076, 0.5^n underflows to 0 and the refined geometric point was refused.
    results = check_sequence_core(dim, 0)
    assert [r.name for r in results] == [name for name, _ in CHECK_ALL_BOUNDS[:3]]
    assert all(r.passed for r in results)


@pytest.mark.parametrize("dim", [501, 1000])
def test_flow_checks_pass_where_a_fixed_rk4_step_leaves_the_simplex(dim):
    # With dt = 1e-3 at every N, an RK4 stage left the simplex from N = 501 on.
    results = check_flows(dim, 0)
    assert [r.name for r in results] == [name for name, _ in CHECK_ALL_BOUNDS[13:17]]
    assert all(r.passed for r in results)


@pytest.mark.parametrize("dim", [2, 16, 500])
def test_rk4_oracle_keeps_its_step_up_to_dim_500(monkeypatch, dim):
    runs = []
    integrate = flows.integrate_rk4

    def recorded(obj, p0, t_max, dt):
        traj = integrate(obj, p0, t_max, dt)
        runs.append((t_max, dt, traj.times[-1]))
        return traj

    monkeypatch.setattr(flows, "integrate_rk4", recorded)
    check_flows(dim, 0)
    assert runs == [(2.0, 1e-3, 2.0)]


def test_bracket_result_reads_the_suite_verdict(monkeypatch):
    # Below BRACKET_TOL but failed by the suite (e.g. a nonzero analytic bracket).
    def failed_suite(c, trials, seed):
        return {
            "brackets_max_abs": 1e-12,
            "conservation_max_drift": 0.0,
            "gram_det": 1.0,
            "pass": False,
            "seed": seed,
        }

    monkeypatch.setattr(hamiltonian, "integrability_suite", failed_suite)
    result = {r.name: r for r in check_hamiltonian(4, 0)}["poisson brackets max abs"]
    assert (result.value, result.threshold, result.passed) == (1e-12, 1e-8, False)


def test_hamiltonian_tolerances_pinned():
    assert hamiltonian.BRACKET_TOL == 1e-8
    assert hamiltonian.CONSERVATION_TOL == 1e-10
    assert hamiltonian.CANONICAL_TOL == 1e-10


def test_cli_verdict_bounds_pinned():
    assert cli.FLOW_MIN_INCREMENT == -1e-12
    assert cli.GEODESIC_RESIDUAL_TOL == 1e-5
    assert cli.LP_RATE_TOL == 0.05
