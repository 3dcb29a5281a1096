import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simplexgeo import checks, hamiltonian
from simplexgeo.errors import ComplexResidue, DimensionMismatch, InvalidParameter, NotNormalizable
from simplexgeo.flows import LinearObjective, flow_closed_form, gradient_field, objective_value
from simplexgeo.hamiltonian import (
    BRACKET_TOL,
    WIRTINGER_STEP,
    ComplexPoint,
    QuadraticHamiltonian,
    bracket_max,
    brackets_vanish,
    coordinate_hamiltonian,
    coordinate_jets,
    hamiltonian_flow,
    hamiltonian_value,
    hamiltonian_vector_field,
    horizontal_gradient,
    integrability_suite,
    kahler_gradient_check,
    momentum_torus,
    poisson_bracket,
    random_complex_point,
    wirtinger,
)
from simplexgeo.sequence_core import make_tangent, random_simplex_point
from simplexgeo.transforms import forward, pushforward


def plus_state():
    return ComplexPoint(np.array([1.0, 1.0]) / np.sqrt(2.0))


class TestMomentumMaps:
    def test_unnormalized_rejected(self):
        with pytest.raises(NotNormalizable):
            ComplexPoint(np.array([1.0, 1.0]))

    def test_torus_plus_state(self):
        out = momentum_torus(plus_state())
        np.testing.assert_allclose(out, [0.25, 0.25], rtol=1e-15)
        np.testing.assert_allclose(2.0 * out, [0.5, 0.5], rtol=1e-15)

    def test_torus_vertex(self):
        out = momentum_torus(ComplexPoint(np.array([1.0, 0.0])))
        np.testing.assert_array_equal(out, [0.5, 0.0])

    def test_doubled_lands_in_closed_simplex(self, rng):
        for _ in range(100):
            z = random_complex_point(rng, 16)
            doubled = 2.0 * momentum_torus(z)
            assert doubled.min() >= 0.0
            assert abs(doubled.sum() - 1.0) <= 1e-12

    def test_real_lift_inverts_square_root(self, rng):
        for _ in range(20):
            p = random_simplex_point(rng, 8)
            lift = ComplexPoint(forward(p, 2.0).coords.astype(complex))
            doubled = 2.0 * momentum_torus(lift)
            np.testing.assert_allclose(doubled, p.coords, rtol=0, atol=1e-14)


class TestHamiltonianValue:
    def test_plus_state(self):
        H = QuadraticHamiltonian(np.array([1.0, 0.0]))
        assert hamiltonian_value(H, plus_state()) == pytest.approx(0.5, rel=1e-15)

    def test_constant_weights(self, rng):
        H = QuadraticHamiltonian(np.full(6, 4.5))
        z = random_complex_point(rng, 6)
        assert hamiltonian_value(H, z) == pytest.approx(4.5, rel=1e-14)

    def test_agrees_with_objective_on_lifts(self, rng):
        for _ in range(10):
            p = random_simplex_point(rng, 12)
            c = rng.standard_normal(12)
            lift = ComplexPoint(forward(p, 2.0).coords.astype(complex))
            lhs = hamiltonian_value(QuadraticHamiltonian(c), lift)
            rhs = objective_value(LinearObjective(c), p)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)

    def test_gauge_invariance(self, rng):
        H = QuadraticHamiltonian(rng.standard_normal(8))
        z = random_complex_point(rng, 8)
        theta = float(rng.uniform(0, 2 * np.pi))
        rotated = ComplexPoint(np.exp(1j * theta) * z.coords)
        assert hamiltonian_value(H, rotated) == pytest.approx(hamiltonian_value(H, z), abs=1e-14)
        np.testing.assert_allclose(momentum_torus(rotated), momentum_torus(z), atol=1e-14)


class TestWirtinger:
    def test_quadratic_exact(self, rng):
        c = rng.standard_normal(5)
        H = QuadraticHamiltonian(c)
        z = random_complex_point(rng, 5)
        [(dz, dzbar)] = wirtinger([H], z)
        np.testing.assert_array_equal(dz, c * z.coords.conjugate())
        np.testing.assert_array_equal(dzbar, c * z.coords)

    def test_single_mode_has_point_support(self, rng):
        c = np.array([3.0, 2.0, 1.0])
        z = random_complex_point(rng, 3)
        [(dz, dzbar)] = wirtinger([coordinate_hamiltonian(c, 1)], z)
        assert dz[0] == 0.0 and dz[2] == 0.0
        assert dz[1] == 2.0 * z.coords[1].conjugate()

    def test_zero_weights_have_zero_jets(self, rng):
        # Zero weights: the constant field 0, whose 1-jets vanish on both paths.
        z = random_complex_point(rng, 4)
        for numeric in (False, True):
            [(dz, dzbar)] = wirtinger([QuadraticHamiltonian(np.zeros(4))], z, numeric)
            np.testing.assert_array_equal(dz, 0.0)
            np.testing.assert_array_equal(dzbar, 0.0)

    @pytest.mark.parametrize("numeric", [False, True])
    @pytest.mark.parametrize("first", [False, True])
    def test_callable_rejected_before_any_work(self, rng, evaluations, numeric, first):
        z = random_complex_point(rng, 4)
        called = []
        field = lambda w: called.append(w) or 1.5  # noqa: E731
        quadratics = [QuadraticHamiltonian(np.ones(4))]
        observables = [field, *quadratics] if first else [*quadratics, field]
        with pytest.raises(InvalidParameter, match="got function"):
            wirtinger(observables, z, numeric)
        assert called == []
        assert evaluations == {"rows": 0, "quadratic_calls": 0}

    @pytest.mark.parametrize("numeric", [False, True])
    def test_quadratic_longer_than_point_rejected(self, numeric):
        with pytest.raises(DimensionMismatch):
            wirtinger([QuadraticHamiltonian(np.ones(3))], ComplexPoint(np.array([1.0 + 0j])), numeric)

    @pytest.mark.parametrize("numeric", [False, True])
    def test_quadratic_shorter_than_point_rejected(self, rng, numeric):
        with pytest.raises(DimensionMismatch):
            wirtinger([QuadraticHamiltonian(np.ones(2))], random_complex_point(rng, 3), numeric)

    @pytest.mark.parametrize("k", [3, 4, 5, 10])
    def test_coordinate_past_the_point_rejected(self, rng, k):
        with pytest.raises(DimensionMismatch, match=f"coordinate index {k}, point dim 3"):
            coordinate_jets(random_complex_point(rng, 3), k)

    @pytest.mark.parametrize("k", [-1, -3])
    def test_negative_coordinate_rejected(self, rng, k):
        with pytest.raises(InvalidParameter, match="coordinate index must be >= 0"):
            coordinate_jets(random_complex_point(rng, 3), k)

    @pytest.mark.parametrize("n", [3, 4, 10])
    def test_mode_past_the_coefficients_rejected(self, n):
        with pytest.raises(DimensionMismatch, match=f"mode index {n}, coefficient dim 3"):
            coordinate_hamiltonian([1.0, 2.0, 3.0], n)

    @pytest.mark.parametrize("n", [-1, -3])
    def test_negative_mode_rejected(self, n):
        # A negative index would otherwise pick a mode from the end of c.
        with pytest.raises(InvalidParameter, match="mode index must be >= 0"):
            coordinate_hamiltonian([1.0, 2.0, 3.0], n)

    def test_numeric_matches_analytic(self, rng):
        for _ in range(10):
            c = rng.standard_normal(6)
            H = QuadraticHamiltonian(c)
            z = random_complex_point(rng, 6)
            [(dz_a, dzbar_a)] = wirtinger([H], z)
            [(dz_n, dzbar_n)] = wirtinger([H], z, numeric=True)
            np.testing.assert_allclose(dz_n, dz_a, atol=1e-8)
            np.testing.assert_allclose(dzbar_n, dzbar_a, atol=1e-8)


class TestPoissonBracket:
    def test_disjoint_modes_vanish_exactly(self, rng):
        c = rng.standard_normal(8)
        z = random_complex_point(rng, 8)
        for k in range(8):
            for m in range(k + 1, 8):
                pair = [coordinate_hamiltonian(c, k), coordinate_hamiltonian(c, m)]
                val = poisson_bracket(*wirtinger(pair, z))
                assert val == 0.0

    def test_full_against_modes_vanish(self, rng):
        c = rng.standard_normal(6)
        z = random_complex_point(rng, 6)
        H = QuadraticHamiltonian(c)
        for n in range(6):
            assert poisson_bracket(*wirtinger([H, coordinate_hamiltonian(c, n)], z)) == 0.0

    def test_canonical_pair(self, rng):
        z = random_complex_point(rng, 4)
        for k in range(4):
            re, im = coordinate_jets(z, k)
            assert poisson_bracket(re, im) == 1.0
            assert poisson_bracket(im, re) == -1.0

    def test_coordinate_jets_values(self, rng):
        z = random_complex_point(rng, 3)
        (re_dz, re_dzbar), (im_dz, im_dzbar) = coordinate_jets(z.coords, 1)
        np.testing.assert_array_equal(re_dz, [0.0, 0.5, 0.0])
        np.testing.assert_array_equal(re_dzbar, [0.0, 0.5, 0.0])
        np.testing.assert_array_equal(im_dz, [0.0, -0.5j, 0.0])
        np.testing.assert_array_equal(im_dzbar, [0.0, 0.5j, 0.0])

    @pytest.mark.parametrize("n", [1, 4])
    def test_flow_moves_coordinates_by_h_first(self, rng, n):
        # Along the flow of H, d f(z(t))/dt = {H, f} = -{f, H}: H takes the first slot.
        h = 1e-6
        for _ in range(3):
            H = QuadraticHamiltonian(rng.uniform(-3.0, 3.0, n))
            z = random_complex_point(rng, n)
            [jet] = wirtinger([H], z)
            velocity = (hamiltonian_flow(H, z, h).coords - hamiltonian_flow(H, z, -h).coords) / (2.0 * h)
            for k in range(n):
                for f_jet, rate in zip(coordinate_jets(z, k), (velocity[k].real, velocity[k].imag)):
                    assert rate == pytest.approx(poisson_bracket(jet, f_jet), abs=1e-8)
                    assert rate == pytest.approx(-poisson_bracket(f_jet, jet), abs=1e-8)

    def test_numeric_path_agrees(self, rng):
        # A quadratic's numeric 1-jet brackets with the exact coordinate jets as its exact one does.
        H = QuadraticHamiltonian(rng.uniform(-3.0, 3.0, 4))
        z = random_complex_point(rng, 4)
        [exact], [numeric] = wirtinger([H], z), wirtinger([H], z, numeric=True)
        for k in range(4):
            for jet in coordinate_jets(z, k):
                assert poisson_bracket(numeric, jet) == pytest.approx(poisson_bracket(exact, jet), abs=1e-8)

    def test_complex_field_rejected(self):
        # The 1-jet of the holomorphic z_0 is (e_0, 0); its bracket with |z|^2 is -2i z_0.
        z = ComplexPoint(np.ones(3) / np.sqrt(3.0))
        holomorphic = (np.array([1.0, 0.0, 0.0], dtype=complex), np.zeros(3, dtype=complex))
        [jet] = wirtinger([QuadraticHamiltonian(np.ones(3))], z)
        with pytest.raises(ComplexResidue):
            poisson_bracket(holomorphic, jet)


def loop_wirtinger(f, z):
    """The per-coordinate loop the stacked kernel replaced, kept as its bitwise reference."""
    n = z.size
    dz = np.empty(n, dtype=complex)
    dzbar = np.empty(n, dtype=complex)
    for j in range(n):
        e = np.zeros(n, dtype=complex)
        e[j] = WIRTINGER_STEP
        df_dx = (f(z + e) - f(z - e)) / (2.0 * WIRTINGER_STEP)
        df_dy = (f(z + 1j * e) - f(z - 1j * e)) / (2.0 * WIRTINGER_STEP)
        dz[j] = 0.5 * (df_dx - 1j * df_dy)
        dzbar[j] = 0.5 * (df_dx + 1j * df_dy)
    return dz, dzbar


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestStackedWirtinger:
    @settings(max_examples=30)
    @given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1), zeros=st.floats(0.0, 1.0))
    @example(n=300, seed=0, zeros=0.3)
    @example(n=7, seed=1, zeros=1.0)
    def test_bitwise_equals_loop(self, n, seed, zeros):
        rng = np.random.default_rng(seed)
        z = np.empty(n, dtype=complex)
        z.real, z.imag = rng.uniform(-1.0, 1.0, (2, n))
        for part in (z.real, z.imag):
            hit = rng.random(n) < zeros
            part[hit] = rng.choice([0.0, -0.0], hit.sum())
        w = rng.standard_normal(n)
        w[rng.random(n) < zeros] = 0.0
        k, m = (int(i) for i in rng.integers(0, n, 2))
        quadratics = [
            QuadraticHamiltonian(w),
            coordinate_hamiltonian(w, k),
            coordinate_hamiltonian(w, m),
            QuadraticHamiltonian(np.zeros(n)),
        ]
        for f, (dz, dzbar) in zip(quadratics, wirtinger(quadratics, z, numeric=True)):
            ref_dz, ref_dzbar = loop_wirtinger(f, z)
            assert np.array_equal(bits(dz), bits(ref_dz)), f
            assert np.array_equal(bits(dzbar), bits(ref_dzbar)), f

    def test_mismatched_quadratic_rejected(self, rng):
        z = random_complex_point(rng, 4).coords
        with pytest.raises(DimensionMismatch):
            wirtinger([QuadraticHamiltonian(np.ones(n)) for n in (4, 5)], z, numeric=True)

    def test_memory_is_bounded_in_blocks(self, rng):
        # An unblocked (4N, N) stack with its |z|^2 would need about 400 MB here.
        n = 2048
        z = random_complex_point(rng, n).coords
        tracemalloc.start()
        try:
            wirtinger([QuadraticHamiltonian(np.ones(n))], z, numeric=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


@pytest.fixture
def evaluations(monkeypatch):
    """Rows of the perturbation stack evaluated, and scalar QuadraticHamiltonian calls."""
    counts = {"rows": 0, "quadratic_calls": 0}
    row_values = hamiltonian._row_values
    call = QuadraticHamiltonian.__call__

    def rows(H, abs2):
        counts["rows"] += len(abs2)
        return row_values(H, abs2)

    def counted(self, z):
        counts["quadratic_calls"] += 1
        return call(self, z)

    monkeypatch.setattr(hamiltonian, "_row_values", rows)
    monkeypatch.setattr(QuadraticHamiltonian, "__call__", counted)
    return counts


class TestBracketMax:
    @given(n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_equals_pairwise_reference(self, n, seed, data):
        rng = np.random.default_rng(seed)
        z = random_complex_point(rng, n)
        c = rng.uniform(-3.0, 3.0, n)
        k, m = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        quadratics = data.draw(st.permutations([
            QuadraticHamiltonian(c),
            QuadraticHamiltonian(rng.uniform(-3.0, 3.0, n)),
            coordinate_hamiltonian(c, k),
            coordinate_hamiltonian(c, m),
        ]))
        analytic = numeric = 0.0
        for i, f in enumerate(quadratics):
            for g in quadratics[i + 1 :]:
                analytic = max(analytic, abs(poisson_bracket(*wirtinger([f, g], z))))
                numeric = max(numeric, abs(poisson_bracket(*wirtinger([f, g], z, numeric=True))))
        assert bracket_max(quadratics, z) == (analytic, numeric)

    def test_complex_observable_rejected(self, evaluations):
        # Any callable, the complex z_0 here, is refused before a jet or a stack row is built.
        z = ComplexPoint(np.ones(3) / np.sqrt(3.0))
        called = []
        with pytest.raises(InvalidParameter, match="got function"):
            bracket_max([QuadraticHamiltonian(np.ones(3)), lambda w: called.append(w) or w[0]], z)
        assert called == []
        assert evaluations == {"rows": 0, "quadratic_calls": 0}

    @pytest.mark.parametrize("n, count", [(4, 3), (8, 9)])
    def test_each_gradient_once(self, rng, evaluations, n, count):
        c = rng.uniform(0.5, 3.0, n)
        modes = [coordinate_hamiltonian(c, k % n) for k in range(count)]
        bracket_max(modes, random_complex_point(rng, n))
        assert evaluations == {"rows": count * 4 * n, "quadratic_calls": 0}

    def test_integrability_suite_evaluations(self, evaluations):
        n, trials = 6, 3
        integrability_suite(np.linspace(2.0, 1.0, n), trials=trials, seed=11)
        assert evaluations == {"rows": trials * (n + 1) * 4 * n, "quadratic_calls": 0}


class TestBracketVerdict:
    @pytest.mark.parametrize(
        "analytic, numeric, passed",
        [
            (0.0, BRACKET_TOL, True),
            (5e-324, 0.0, False),
            (0.0, np.nextafter(BRACKET_TOL, 1.0), False),
        ],
    )
    def test_edges(self, analytic, numeric, passed):
        assert brackets_vanish(analytic, numeric) is passed


class TestHamiltonianFlow:
    def test_t_zero(self, rng):
        z0 = random_complex_point(rng, 5)
        H = QuadraticHamiltonian(rng.standard_normal(5))
        np.testing.assert_array_equal(hamiltonian_flow(H, z0, 0.0).coords, z0.coords)

    def test_quarter_period_phase(self):
        H = QuadraticHamiltonian(np.array([1.0, 0.0]))
        out = hamiltonian_flow(H, plus_state(), np.pi / 2.0)
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(out.coords, [-s, s], atol=1e-15)

    def test_moduli_preserved(self, rng):
        z0 = random_complex_point(rng, 10)
        H = QuadraticHamiltonian(rng.standard_normal(10))
        for t in (0.1, 1.0, 10.0, 123.456):
            moved = hamiltonian_flow(H, z0, t)
            np.testing.assert_allclose(np.abs(moved.coords), np.abs(z0.coords), atol=1e-14)

    def test_conserves_every_mode_energy(self, rng):
        c = rng.standard_normal(12)
        H = QuadraticHamiltonian(c)
        z0 = random_complex_point(rng, 12)
        for t in (0.1, 1.0, 10.0):
            moved = hamiltonian_flow(H, z0, t)
            for n in range(12):
                hn = coordinate_hamiltonian(c, n)
                assert abs(hamiltonian_value(hn, moved) - hamiltonian_value(hn, z0)) <= 1e-10


class TestKahlerIdentity:
    def test_random_instances(self, rng):
        for _ in range(20):
            H = QuadraticHamiltonian(rng.standard_normal(8))
            z = random_complex_point(rng, 8)
            assert kahler_gradient_check(H, z) <= 1e-10

    def test_constant_weights_vanish(self, rng):
        H = QuadraticHamiltonian(np.full(6, 2.0))
        z = random_complex_point(rng, 6)
        assert np.linalg.norm(horizontal_gradient(H, z)) <= 1e-13
        assert np.linalg.norm(hamiltonian_vector_field(H, z)) <= 1e-13

    def test_real_lift_matches_scaled_pushforward(self, rng):
        # on real positive lifts the sphere gradient is 4 x the pushforward of
        # the simplex ascent field (the documented metric normalization)
        for _ in range(10):
            p = random_simplex_point(rng, 8)
            c = rng.standard_normal(8)
            lift = ComplexPoint(forward(p, 2.0).coords.astype(complex))
            grad = horizontal_gradient(QuadraticHamiltonian(c), lift)
            np.testing.assert_allclose(grad.imag, 0.0, atol=1e-14)
            w = make_tangent(p, gradient_field(LinearObjective(c), p.coords))
            push = pushforward(w, 2.0).comps
            np.testing.assert_allclose(grad.real, 4.0 * push, rtol=0, atol=1e-12)


class TestProjectionConsistency:
    def test_sphere_gradient_flow_projects_to_simplex_flow(self, rng):
        # closed-form sphere ascent x(t) ~ x0 exp(2 c t); its doubled torus
        # momentum is the simplex flow at rescaled time 4t
        p0 = random_simplex_point(rng, 6)
        c = rng.standard_normal(6)
        x0 = forward(p0, 2.0).coords
        for t in (0.0, 0.3, 1.0):
            xt = x0 * np.exp(2.0 * c * t)
            xt = xt / np.linalg.norm(xt)
            doubled = 2.0 * momentum_torus(ComplexPoint(xt.astype(complex)))
            expect = flow_closed_form(LinearObjective(c), p0, 4.0 * t)
            np.testing.assert_allclose(doubled, expect.coords, atol=1e-13)


def suite_streams(trials, seed):
    return np.random.SeedSequence(seed).spawn(trials + 1)


def reference_gram_det(c, seed):
    """The one-trial suite's Gram determinant, taken from the full N^2 matrix of inner products."""
    zg = random_complex_point(np.random.default_rng(suite_streams(1, seed)[-1]), c.size)
    grads = []
    for g, _ in wirtinger([coordinate_hamiltonian(c, k) for k in range(c.size)], zg):
        with np.errstate(over="ignore", invalid="ignore"):
            norm = np.linalg.norm(g)
            if not math.isfinite(norm):
                g = g / np.abs(g).max()
                norm = np.linalg.norm(g)
        grads.append(g / norm if norm > 0.0 else g)
    gram = np.array([[np.vdot(a, b).real for b in grads] for a in grads])
    return float(np.linalg.det(gram))


def reference_drift(c, trials, seed):
    """The conservation drift as the suite took it, one ``_row_values`` pass per mode."""
    h_full = QuadraticHamiltonian(c)
    drifts = []
    for stream in suite_streams(trials, seed)[:-1]:
        z = random_complex_point(np.random.default_rng(stream), c.size)
        path = [z.coords] + [hamiltonian_flow(h_full, z, t).coords for t in (0.1, 1.0, 10.0)]
        abs2 = np.abs(np.array(path)) ** 2
        for k in range(c.size):
            energy = hamiltonian._row_values(coordinate_hamiltonian(c, k), abs2)
            drifts.append(float(np.abs(energy[1:] - energy[0]).max()))
    return float(np.max(drifts, initial=0.0))


@st.composite
def suite_weights(draw):
    """Weights of 1 to 48 modes: uniform, with zeros, signed near 1e300 or 1e-300, or geometric."""
    n = draw(st.integers(1, 48))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", "zeros", "huge", "tiny", "geometric"]))
    sign = rng.choice([-1.0, 1.0], n)
    if kind == "uniform":
        return rng.uniform(-3.0, 3.0, n)
    if kind == "zeros":
        return np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0.5, 3.0, n))
    if kind == "huge":
        return sign * 10.0 ** rng.uniform(299.0, 300.5, n)
    if kind == "tiny":
        return sign * 10.0 ** -rng.uniform(299.0, 301.0, n)
    return rng.uniform(0.1, 0.9) ** np.arange(n)


class TestSuiteBlocks:
    """The Gram block reads only the diagonal and the drift takes every mode in one pass;
    both give the bits of the full matrix and of the per-mode loop they replaced."""

    @staticmethod
    def run_suite(c, trials, seed):
        # The brackets read neither block; skipping them keeps near-overflow weights cheap.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hamiltonian, "bracket_max", lambda quadratics, z: (0.0, 0.0))
            return integrability_suite(c, trials=trials, seed=seed)

    @settings(max_examples=60)
    @given(c=suite_weights(), seed=st.integers(0, 2**32 - 1))
    @example(c=np.array([2.5]), seed=0)
    @example(c=np.array([1.0, 0.0, 2.0]), seed=5)
    @example(c=np.array([1.7e154, 1.0, 1.0]), seed=7)
    @example(c=np.array([-1e300, 3e300, 1e-300]), seed=1)
    @example(c=0.5 ** np.arange(48.0), seed=2)
    @example(c=np.insert(np.linspace(0.5, 3.0, 24), 9, 0.0), seed=3)
    def test_gram_determinant_matches_the_full_matrix(self, c, seed):
        got = self.run_suite(c, 1, seed)["gram_det"]
        assert bits(got) == bits(reference_gram_det(c, seed))

    def test_no_factorisation_takes_the_determinant(self):
        weights = [np.array([3.0, 2.0, 1.0]), 0.9 ** np.arange(48.0), np.array([1.0, 0.0, 2.0])]
        expected = [reference_gram_det(c, 11) for c in weights]

        def refuse(*args, **kwargs):
            raise AssertionError("the Gram determinant needs no factorisation")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "det", refuse)
            mp.setattr(np.linalg, "slogdet", refuse)
            got = [integrability_suite(c, trials=1, seed=11)["gram_det"] for c in weights]
            results = checks.check_all(8, 11)
        assert bits(got).tolist() == bits(expected).tolist()
        assert all(r.passed for r in results)

    def test_an_overflowing_log_sum_gives_inf_as_det_does(self):
        # Unit-normalised entries reach it only through contrived weights at thousands
        # of modes; inflated ones show that it gives det's inf, not an OverflowError.
        c = np.array([1.0, 2.0, 3.0])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np, "vdot", lambda a, b: np.complex128(1e300))
            got = self.run_suite(c, 1, 0)["gram_det"]
        with np.errstate(over="ignore"):
            assert got == np.linalg.det(np.diag([1e300] * 3)) == math.inf

    @settings(max_examples=60)
    @given(c=suite_weights(), trials=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    @example(c=np.array([2.5]), trials=1, seed=0)
    @example(c=np.array([1.0, 0.0, -2.0]), trials=2, seed=5)
    def test_drift_matches_the_per_mode_loop(self, c, trials, seed):
        got = self.run_suite(c, trials, seed)["conservation_max_drift"]
        assert bits(got) == bits(reference_drift(c, trials, seed))


class TestIntegrabilitySuite:
    def test_three_mode_run(self):
        report = integrability_suite(np.array([3.0, 2.0, 1.0]), trials=10, seed=42)
        assert report["pass"]
        assert report["brackets_max_abs"] <= 1e-8
        assert report["conservation_max_drift"] <= 1e-10
        assert report["gram_det"] > 0.0
        assert report["seed"] == 42

    def test_single_mode_degenerate(self):
        report = integrability_suite(np.array([2.5]), trials=2, seed=7)
        assert report["pass"]

    def test_repeated_weights_still_commute(self):
        report = integrability_suite(np.array([2.0, 2.0, 1.0]), trials=3, seed=3)
        assert report["pass"]

    def test_zero_weight_fails_independence(self):
        report = integrability_suite(np.array([1.0, 0.0, 2.0]), trials=1, seed=5)
        assert report["gram_det"] == 0.0
        assert not report["pass"]

    def test_overflowing_gradient_norm_keeps_independence(self):
        # |c_0 z_0| near 1e154 overflows the norm of its gradient, but not the gradient.
        report = integrability_suite(np.array([1.7e154, 1.0, 1.0]), trials=10, seed=7)
        assert math.isfinite(report["brackets_max_abs"])
        assert report["gram_det"] > 0.0

    def test_nan_bracket_reaches_the_report(self):
        # c_0^2 overflows, so the bracket of the full Hamiltonian with mode 0 is inf - inf.
        report = integrability_suite(np.array([1e200, 1e199, 1.0]), trials=10, seed=1)
        assert math.isnan(report["brackets_max_abs"])
        assert not report["pass"]

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_is_typed(self, trials):
        with pytest.raises(InvalidParameter, match="trials must be >= 1"):
            integrability_suite(np.array([1.0, 0.5]), trials=trials, seed=0)

    def test_report_keys(self):
        report = integrability_suite(np.array([1.0, 0.5]), trials=1, seed=0)
        assert set(report) == {
            "brackets_max_abs",
            "conservation_max_drift",
            "gram_det",
            "pass",
            "seed",
        }
