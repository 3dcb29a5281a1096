"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 4, 6 and 10 also print their experiment tables: the LP decay rate
against c_0 - c_1 per objective gap, the flow's deviation from the
e-geodesic, and the refinement differences next to the tail bound.  Run
``pytest tests/test_acceptance.py -v -s`` to see them.

Everything here is desk scale (N <= 64, double precision) and must stay
well under a minute in total.  Random draws are seeded, so the suite is
deterministic.
"""

import numpy as np

from simplexgeo.connections import EGeodesic, e_connection_residual, make_e_geodesic
from simplexgeo.flows import (
    LinearObjective,
    flow_closed_form,
    flow_geodesic_correspondence,
    flow_ode_residual,
    integrate_rk4,
    objective_value,
    solve_lp,
)
from simplexgeo.hamiltonian import (
    ComplexPoint,
    QuadraticHamiltonian,
    coordinate_hamiltonian,
    coordinate_jets,
    hamiltonian_flow,
    hamiltonian_value,
    momentum_torus,
    poisson_bracket,
    random_complex_point,
    wirtinger,
)
from simplexgeo.metrics import finsler_norm, fr_distance, fr_geodesic, fr_inner
from simplexgeo.sequence_core import (
    SequenceSpec,
    lq_norm,
    make_simplex_point,
    random_simplex_point,
    random_tangent,
)
from simplexgeo.transforms import forward, pullback_inner, pushforward

SEED = 20260810


def report(name, worst, bound, extra=""):
    status = "pass" if worst <= bound else "FAIL"
    print(f"ACCEPTANCE {name}: worst {worst:.3e} vs bound {bound:.1e} {extra}[{status}]")
    assert worst <= bound


def test_criterion_1_square_root_isometry():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for dim in (2, 8, 32):
        for _ in range(200):
            p = random_simplex_point(rng, dim)
            v = random_tangent(rng, p)
            w = random_tangent(rng, p)
            fr = fr_inner(v, w)
            defect = abs(fr - pullback_inner(v, w)) / max(1.0, abs(fr))
            worst = max(worst, defect)
    report("1 square-root isometry", worst, 1e-12)


def test_criterion_2_q_root_identity():
    rng = np.random.default_rng(SEED + 1)
    worst_q = 0.0
    worst_2 = 0.0
    for q in (1.5, 2.0, 3.0, 4.0):
        for dim in (2, 8, 32):
            for _ in range(50):
                p = random_simplex_point(rng, dim)
                v = random_tangent(rng, p)
                lhs = lq_norm(pushforward(v, q).comps, q)
                rhs = finsler_norm(v, q) / q
                worst_q = max(worst_q, abs(lhs - rhs) / max(rhs, 1e-300))
                if q == 2.0:
                    defect = abs(finsler_norm(v, 2.0) - 2.0 * np.sqrt(fr_inner(v, v)))
                    worst_2 = max(worst_2, defect / max(1.0, finsler_norm(v, 2.0)))
    report("2a q-root norm identity", worst_q, 1e-10)
    report("2b q=2 vs Fisher-Rao norm", worst_2, 1e-12)


def test_criterion_3_gradient_flow_correctness():
    rng = np.random.default_rng(SEED + 2)
    worst_fd = 0.0
    for _ in range(60):
        dim = int(rng.choice([4, 16, 32]))
        obj = LinearObjective(rng.uniform(-1.0, 1.0, size=dim))
        p0 = random_simplex_point(rng, dim)
        worst_fd = max(worst_fd, flow_ode_residual(obj, p0, float(rng.uniform(0, 2))))
    report("3a flow ODE residual", worst_fd, 1e-6)

    worst_rk = 0.0
    for _ in range(5):
        obj = LinearObjective(np.sort(rng.uniform(-1.0, 1.0, size=8))[::-1].copy())
        p0 = random_simplex_point(rng, 8)
        traj = integrate_rk4(obj, p0, t_max=2.0, dt=1e-3)
        gap = np.abs(traj.coords[-1] - flow_closed_form(obj, p0, 2.0).coords).sum()
        worst_rk = max(worst_rk, float(gap))
    report("3b RK4 oracle endpoint", worst_rk, 1e-6)


def test_criterion_4_lp_convergence():
    rng = np.random.default_rng(SEED + 3)
    worst_dist = 0.0
    worst_rate = 0.0
    cases = [np.array([3.0, 2.0, 1.0]), 0.5 ** np.arange(8)]
    for _ in range(4):
        dim = int(rng.integers(3, 9))
        gaps = rng.uniform(0.3, 1.0, size=dim - 1)
        cases.append(np.concatenate([[0.0], -np.cumsum(gaps)]) + rng.uniform(0.0, 2.0))
    # Evenly spaced objectives c_n = -gap n at N = 8: the rate table.
    rate_gaps = (0.1, 0.25, 0.5, 1.0, 2.0)
    cases += [-gap * np.arange(8.0) for gap in rate_gaps]
    reports = []
    for c in cases:
        obj = LinearObjective(c)
        assert obj.strictly_decreasing
        p0 = random_simplex_point(rng, obj.dim)
        limit, rep = solve_lp(obj, p0, tol=1e-8)
        assert rep.converged and rep.rate is not None
        e0 = np.zeros(obj.dim)
        e0[0] = 1.0
        worst_dist = max(worst_dist, float(np.abs(limit.coords - e0).sum()))
        worst_rate = max(worst_rate, rep.rate_rel_err)
        reports.append(rep)
    for gap, rep in zip(rate_gaps, reports[-len(rate_gaps) :]):
        print(
            f"ACCEPTANCE 4 gap {gap:<4} fitted rate {rep.rate:.6f} "
            f"rel err {rep.rate_rel_err:.1e} t_final {rep.t_final:.3f}"
        )
    report("4a LP vertex distance", worst_dist, 1e-8)
    report("4b LP decay-rate fit", worst_rate, 0.05, extra="(5% of c_0 - c_1) ")


def test_criterion_5_e_geodesics():
    rng = np.random.default_rng(SEED + 4)
    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 33))
        p0 = random_simplex_point(rng, dim)
        v0 = random_tangent(rng, p0, max_ratio=0.5)
        geo = make_e_geodesic(p0, v0)
        t = float(rng.uniform(-0.5, 0.5))
        worst = max(worst, float(np.abs(e_connection_residual(geo, t)).max()))
    report("5a e-geodesic equation residual", worst, 1e-6)

    geo = EGeodesic(random_simplex_point(rng, 8), rng.uniform(-1.0, 1.0, size=8))
    exact = 0.0
    for t in (-1e4, 1e4):
        pt = geo(t)
        assert pt.coords.min() > 0.0
        exact = max(exact, abs(float(pt.coords.sum()) - 1.0))
    report("5b completeness at |t|=1e4 (exact unit sum)", exact, 0.0)


def test_criterion_6_flow_geodesic_correspondence():
    rng = np.random.default_rng(SEED + 5)
    times = tuple(np.linspace(0.0, 5.0, 11))
    devs = []
    for _ in range(50):
        obj = LinearObjective(rng.standard_normal(16))
        p0 = random_simplex_point(rng, 16)
        devs.append(flow_geodesic_correspondence(obj, p0, times=times))
    print(f"ACCEPTANCE 6 deviation over 11 times in [0, 5]: mean {np.mean(devs):.3e}")
    report("6 flow vs e-geodesic (l1, grid)", max(devs), 1e-12)


def test_criterion_7_integrability():
    rng = np.random.default_rng(SEED + 6)
    n = 16
    c = np.sort(rng.uniform(0.5, 3.0, size=n))[::-1].copy()
    modes = [coordinate_hamiltonian(c, k) for k in range(n)]
    full = QuadraticHamiltonian(c)
    z = random_complex_point(rng, n)

    worst_analytic = 0.0
    worst_numeric = 0.0
    for k in range(n):
        for m in range(k + 1, n):
            pair = [modes[k], modes[m]]
            worst_analytic = max(worst_analytic, abs(poisson_bracket(*wirtinger(pair, z))))
            worst_numeric = max(
                worst_numeric, abs(poisson_bracket(*wirtinger(pair, z, numeric=True)))
            )
        pair = [full, modes[k]]
        worst_analytic = max(worst_analytic, abs(poisson_bracket(*wirtinger(pair, z))))
        worst_numeric = max(worst_numeric, abs(poisson_bracket(*wirtinger(pair, z, numeric=True))))
    report("7a analytic brackets (exact zero)", worst_analytic, 0.0)
    report("7b numeric brackets", worst_numeric, 1e-8)

    drift = 0.0
    for t in np.linspace(0.0, 10.0, 21)[1:]:
        moved = hamiltonian_flow(full, z, float(t))
        for mode in modes:
            drift = max(drift, abs(hamiltonian_value(mode, moved) - hamiltonian_value(mode, z)))
    report("7c conservation drift over t in [0, 10]", drift, 1e-10)

    canonical = abs(poisson_bracket(*coordinate_jets(z, 0)) - 1.0)
    report("7d canonical pair {Re z_0, Im z_0} = 1", canonical, 1e-10)


def test_criterion_8_momentum_map_image():
    rng = np.random.default_rng(SEED + 7)
    worst_sum = 0.0
    for _ in range(500):
        dim = int(rng.choice([4, 16, 64]))
        doubled = 2.0 * momentum_torus(random_complex_point(rng, dim))
        assert doubled.min() >= 0.0
        worst_sum = max(worst_sum, abs(float(doubled.sum()) - 1.0))
    report("8a doubled momentum lands in closed simplex", worst_sum, 1e-12)

    worst_inv = 0.0
    for _ in range(50):
        p = random_simplex_point(rng, 16)
        lift = ComplexPoint(forward(p, 2.0).coords.astype(complex))
        worst_inv = max(worst_inv, float(np.abs(2.0 * momentum_torus(lift) - p.coords).max()))
    report("8b real lifts invert the square root", worst_inv, 1e-14)


def test_criterion_9_geodesic_convexity():
    rng = np.random.default_rng(SEED + 8)
    worst_len = 0.0
    min_coord = np.inf
    for _ in range(100):
        p = random_simplex_point(rng, 8)
        r = random_simplex_point(rng, 8)
        for t in np.linspace(0.0, 1.0, 21):
            min_coord = min(min_coord, float(fr_geodesic(p, r, float(t)).coords.min()))
        worst_len = max(worst_len, abs(_slerp_length(p, r) - fr_distance(p, r)))
    assert min_coord > 0.0
    print(f"ACCEPTANCE 9a geodesic positivity: min coordinate {min_coord:.3e} [pass]")
    report("9b quadrature length vs distance", worst_len, 1e-4)


def _slerp_length(p, r, steps=1000, h=1e-6):
    """Independent oracle: midpoint quadrature of the Fisher-Rao speed."""
    a, b = np.sqrt(p.coords), np.sqrt(r.coords)
    theta = np.arccos(np.clip(np.dot(a, b), -1.0, 1.0))
    ts = (np.arange(steps) + 0.5) / steps

    def gamma(t):
        return ((np.sin((1.0 - t) * theta) * a + np.sin(t * theta) * b) / np.sin(theta)) ** 2

    mids = np.stack([gamma(t) for t in ts])
    vels = np.stack([(gamma(t + h) - gamma(t - h)) / (2.0 * h) for t in ts])
    speeds = np.sqrt(0.25 * np.sum(vels**2 / mids, axis=1))
    return float(speeds.mean())


def test_criterion_10_tail_refinement():
    # Quantities computed at N and 2N from one geometric family must differ
    # by no more than the analytic tail bound r^N / (1 - r).  A 1e-11 floor
    # covers the (r=0.3, N=32) cell, where the bound (2.6e-17) sits below
    # double-precision resolution of the O(1) quantities being differenced.
    floor = 1e-11
    worst_ratio = 0.0
    for r in (0.3, 0.5, 0.9):
        for n in (8, 16, 32):
            bound = r**n / (1.0 - r) + floor

            def geo(dim, ratio):
                return make_simplex_point(SequenceSpec("geometric", dim, ratio=ratio))

            d_n = fr_distance(geo(n, r), geo(n, r**3))
            d_2n = fr_distance(geo(2 * n, r), geo(2 * n, r**3))
            diff_dist = abs(d_n - d_2n)

            f_n = objective_value(LinearObjective(r ** np.arange(n)), geo(n, r))
            f_2n = objective_value(LinearObjective(r ** np.arange(2 * n)), geo(2 * n, r))
            diff_obj = abs(f_n - f_2n)

            lim_n, rep_n = solve_lp(LinearObjective(r ** np.arange(n)), geo(n, r), tol=1e-12)
            lim_2n, rep_2n = solve_lp(
                LinearObjective(r ** np.arange(2 * n)), geo(2 * n, r), tol=1e-12
            )
            assert rep_n.converged and rep_2n.converged
            padded = np.zeros(2 * n)
            padded[:n] = lim_n.coords
            diff_lp = float(np.abs(padded - lim_2n.coords).sum())

            print(
                f"ACCEPTANCE 10 r {r} N {n:>2}: tail bound {r**n / (1.0 - r):.3e} "
                f"d_dist {diff_dist:.3e} d_obj {diff_obj:.3e} d_lp {diff_lp:.3e}"
            )
            for diff in (diff_dist, diff_obj, diff_lp):
                assert diff <= bound, (r, n, diff, bound)
                worst_ratio = max(worst_ratio, diff / bound)
    report("10 tail refinement (ratio to bound)", worst_ratio, 1.0)
