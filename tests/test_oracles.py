"""Truth oracles: closed forms checked against exact arithmetic, not against old bits.

Each oracle evaluates a closed form in stdlib ``decimal`` at ``DIGITS``
significant digits from the float inputs, which convert to ``Decimal``
exactly; its own error is far below a float's.  A float kernel passes when
its distance from the oracle is at most ``ulps * EPS * scale``.  The bound
``ulps`` is a multiple of N (the number of terms a reduction sums; an
elementwise map counts N = 1 per coordinate) and is written once, beside
its oracle, with the rounding steps it covers; ``scale`` is named there too.
"""

import decimal
import math
from decimal import Decimal

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from simplexgeo.flows import _vertex_gaps
from simplexgeo.hamiltonian import (
    ComplexPoint,
    QuadraticHamiltonian,
    hamiltonian_value,
    momentum_torus,
    wirtinger,
)
from simplexgeo.metrics import fr_distance, fr_inner
from simplexgeo.sequence_core import SimplexPoint, TangentVector, lq_norm, softmax_rows
from simplexgeo.transforms import forward, pushforward

DIGITS = 50
EXACT = decimal.Context(prec=DIGITS)
#: Unit roundoff times two: the spacing of doubles in [1, 2), exactly 2^-52.
EPS = Decimal(float(np.finfo(float).eps))


def assert_within(value, exact: Decimal, scale: Decimal, ulps: float) -> None:
    """|value - exact| <= ulps * EPS * scale, evaluated exactly; ``value`` is a float or a Decimal."""
    with decimal.localcontext(EXACT):
        error = abs(Decimal(value) - exact)
        bound = Decimal(ulps) * EPS * scale
        assert error <= bound, f"error {float(error / (EPS * scale)):.3g} eps x scale > {ulps}"


def spread_magnitudes(rng: np.random.Generator, n: int, decades: float) -> np.ndarray:
    """n positive numbers whose logs spread over up to ``decades`` decades below 1."""
    return 10.0 ** -rng.uniform(0.0, decades, n)


def unit_complex(rng: np.random.Generator, n: int, decades: float) -> ComplexPoint:
    """A unit complex vector with moduli over up to ``decades`` decades and random phases."""
    z = spread_magnitudes(rng, n, decades) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
    return ComplexPoint(z / np.linalg.norm(z))


def simplex_point(rng: np.random.Generator, n: int, decades: float) -> SimplexPoint:
    """A point of the open simplex with coordinates over up to ``decades`` decades."""
    g = spread_magnitudes(rng, n, decades)
    return SimplexPoint(g / g.sum())


def tangent(rng: np.random.Generator, p: SimplexPoint, decades: float) -> TangentVector:
    """A tangent at p with components of both signs over up to ``decades`` decades;
    the first component takes up the sum, so the rest keep their spread."""
    v = spread_magnitudes(rng, p.dim, decades) * rng.choice([-1.0, 1.0], p.dim)
    v[0] -= v.sum()
    return TangentVector(p, v)


draws = {
    "seed": st.integers(0, 2**32 - 1),
    "decades": st.sampled_from([0.5, 3.0, 12.0, 100.0]),
}


# ---------------------------------------------------------------------------
# the Hamiltonian layer
# ---------------------------------------------------------------------------


def exact_abs2(z: complex) -> Decimal:
    """|z|^2 exactly.  numpy's float |z| is m sqrt(1 + (s/m)^2), m the larger part:
    the ratio, the fused 1 + r^2, the root and the product with m give 1.5 eps
    (1.15 eps seen in 60,000 draws), so its square is within 3.5 eps of this."""
    with decimal.localcontext(EXACT):
        return Decimal(z.real) ** 2 + Decimal(z.imag) ** 2


#: sum w_n |z_n|^2: each |z_n|^2 (3.5 eps), its product with w_n (half an
#: eps) and the N-term sum ((N - 1) eps of the magnitude sum) give
#: N + 3 <= 4N eps of sum |w_n| |z_n|^2.
HAMILTONIAN_VALUE_ULPS = 4


@given(n=st.integers(1, 64), weight_decades=st.floats(0.0, 6.0), **draws)
def test_hamiltonian_value_against_exact(n, seed, decades, weight_decades):
    rng = np.random.default_rng(seed)
    z = unit_complex(rng, n, decades)
    w = rng.standard_normal(n) * 10.0 ** rng.uniform(-weight_decades, weight_decades, n)
    with decimal.localcontext(EXACT):
        terms = [Decimal(float(wn)) * exact_abs2(zn) for wn, zn in zip(w, z.coords)]
        exact, scale = sum(terms), sum(abs(t) for t in terms)
    assert_within(hamiltonian_value(QuadraticHamiltonian(w), z), exact, scale, HAMILTONIAN_VALUE_ULPS * n)


#: (1/2) |z_n|^2 per coordinate: 3.5 eps, the halving being exact.
#: Elementwise, so N = 1: 4 eps of each exact value.
MOMENTUM_ULPS = 4


@given(n=st.integers(1, 64), **draws)
def test_momentum_torus_against_exact(n, seed, decades):
    z = unit_complex(np.random.default_rng(seed), n, decades)
    for got, zn in zip(momentum_torus(z), z.coords):
        with decimal.localcontext(EXACT):
            exact = exact_abs2(zn) / 2
        assert_within(got, exact, exact, MOMENTUM_ULPS)


#: The exact 1-jet (w * conj(z), w * z): one rounded product per real part
#: (half an eps); elementwise, so N = 1: 1 eps of each exact part.
JET_ULPS = 1


@given(n=st.integers(1, 64), **draws)
def test_quadratic_jets_against_exact(n, seed, decades):
    rng = np.random.default_rng(seed)
    z = unit_complex(rng, n, decades)
    w = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
    [(dz, dzbar)] = wirtinger([QuadraticHamiltonian(w)], z)
    for wn, zn, d, dbar in zip(w, z.coords, dz, dzbar):
        with decimal.localcontext(EXACT):
            re, im = Decimal(float(wn)) * Decimal(zn.real), Decimal(float(wn)) * Decimal(zn.imag)
        for got, exact in ((d.real, re), (d.imag, -im), (dbar.real, re), (dbar.imag, im)):
            assert_within(got, exact, abs(exact), JET_ULPS)


# ---------------------------------------------------------------------------
# the square-root side
# ---------------------------------------------------------------------------


def exact_cos(x: Decimal) -> Decimal:
    """cos x by its Taylor series, for |x| <= pi."""
    with decimal.localcontext(EXACT) as ctx:
        ctx.prec += 5
        total, term, k = Decimal(1), Decimal(1), 0
        while abs(term) > Decimal(10) ** -(DIGITS + 5):
            k += 2
            term *= -x * x / (k * (k - 1))
            total += term
    return +total


#: fr_distance is arccos of the Bhattacharyya cosine C = sum sqrt(p_n r_n),
#: read back here as the exact cosine of the returned angle.  The products
#: and roots (0.75 eps each) and the N-term sum give (N + 1) eps of C; the
#: rounded arccos moves the cosine by at most (pi/2) eps absolute.  Both fit
#: in 3N eps of the Cauchy-Schwarz bound ||sqrt p|| ||sqrt r|| = 1 for N >= 2.
BHATTACHARYYA_ULPS = 3


@given(n=st.integers(2, 64), **draws)
def test_fr_distance_reads_the_exact_bhattacharyya_cosine(n, seed, decades):
    rng = np.random.default_rng(seed)
    p, r = simplex_point(rng, n, decades), simplex_point(rng, n, decades)
    theta = fr_distance(p, r)
    # A cosine within 1e-12 of 1 reads as distance 0 by contract (two points that share a
    # dominant coordinate can), so only a positive distance is compared with the oracle.
    assume(theta > 0.0)
    with decimal.localcontext(EXACT):
        exact = sum((Decimal(float(a)) * Decimal(float(b))).sqrt() for a, b in zip(p.coords, r.coords))
    assert_within(exact_cos(Decimal(theta)), exact, Decimal(1), BHATTACHARYYA_ULPS * n)


#: (sum |v_n|^q)^(1/q) = m (sum (|v_n|/m)^q)^(1/q) with m = max |v_n|:
#: the ratio and its power (q/2 + 1 eps), the N-term sum of terms in
#: [0, 1] with one term 1 ((N - 1) eps), the outer root divides both by q
#: and adds ln(N)/(2q) eps for the rounded 1/q plus 1 eps, and the product
#: with m half an eps: at most N + 2 <= 3N eps of the exact norm for q > 1.
LQ_NORM_ULPS = 3


@given(n=st.integers(1, 64), q=st.floats(1.01, 16.0), **draws)
def test_lq_norm_against_exact(n, q, seed, decades):
    rng = np.random.default_rng(seed)
    v = spread_magnitudes(rng, n, decades) * rng.choice([-1.0, 1.0], n)
    with decimal.localcontext(EXACT):
        exact = sum(Decimal(float(abs(x))) ** Decimal(q) for x in v) ** (1 / Decimal(q))
    assert_within(lq_norm(v, q), exact, exact, LQ_NORM_ULPS * n)


#: p_n^(1/q) per coordinate: pow (1 ulp) of the rounded exponent 1/q, whose
#: half-eps error moves the result by ln(1/p_n)/(2q) eps.  Elementwise, so
#: N = 1: 2 (1 + ln(1/p_n)/q) eps of each exact root, the second term being
#: the root's condition number in its exponent.
FORWARD_ULPS = 2


@given(n=st.integers(2, 64), q=st.floats(1.01, 16.0), **draws)
def test_forward_against_exact(n, q, seed, decades):
    p = simplex_point(np.random.default_rng(seed), n, decades)
    for got, pn in zip(forward(p, q).coords, p.coords):
        with decimal.localcontext(EXACT):
            exact = Decimal(float(pn)) ** (1 / Decimal(q))
        condition = 1.0 + math.log(1.0 / pn) / q
        assert_within(got, exact, exact, FORWARD_ULPS * condition)


#: (1/q) v_n p_n^(1/q - 1) per coordinate: the rounded 1/q (half an eps),
#: pow (1 eps) and the two products (half an eps each) give 2.5 eps; the
#: rounded exponent 1/q - 1 is within 1 eps of exact (half an eps from 1/q,
#: half from the subtraction when 1/q < 1/2) and moves the power by
#: ln(1/p_n) eps, the power's condition number in its exponent.
#: Elementwise, so N = 1: 3 (1 + ln(1/p_n)) eps of each exact component.
PUSHFORWARD_ULPS = 3


@given(n=st.integers(2, 64), q=st.floats(1.01, 16.0), **draws)
def test_pushforward_against_exact(n, q, seed, decades):
    rng = np.random.default_rng(seed)
    p = simplex_point(rng, n, decades)
    v = tangent(rng, p, decades)
    for got, vn, pn in zip(pushforward(v, q).comps, v.comps, p.coords):
        with decimal.localcontext(EXACT):
            exact = Decimal(float(vn)) * Decimal(float(pn)) ** (1 / Decimal(q) - 1) / Decimal(q)
        condition = 1.0 + math.log(1.0 / pn)
        assert_within(got, exact, abs(exact), PUSHFORWARD_ULPS * condition)


#: (1/4) sum v_n w_n / p_n: the product and the quotient (half an eps each)
#: and the N-term sum ((N - 1)/2 eps of the magnitude sum; the quarter is
#: exact) give (N + 1)/2 <= N eps of the magnitude sum (1/4) sum |v_n w_n / p_n|.
FR_INNER_ULPS = 1


@given(n=st.integers(2, 64), **draws)
def test_fr_inner_against_exact(n, seed, decades):
    rng = np.random.default_rng(seed)
    p = simplex_point(rng, n, decades)
    v, w = tangent(rng, p, decades), tangent(rng, p, decades)
    with decimal.localcontext(EXACT):
        terms = [
            Decimal(float(a)) * Decimal(float(b)) / Decimal(float(c))
            for a, b, c in zip(v.comps, w.comps, p.coords)
        ]
        exact, scale = sum(terms) / 4, sum(abs(t) for t in terms) / 4
    assert_within(fr_inner(v, w), exact, scale, FR_INNER_ULPS * n)


# ---------------------------------------------------------------------------
# LP vertex distances
# ---------------------------------------------------------------------------


#: The l1 distance |x_0 - 1| + sum_{n>=1} |x_n| to the vertex e_0: the one
#: rounded subtraction x_0 - 1 (half an eps of its magnitude, exact for
#: x_0 >= 1/2) and the N-term sum of nonnegative terms ((N - 1)/2 eps of
#: the exact sum) give N/2 <= N eps of the exact distance.
VERTEX_GAP_ULPS = 1


@given(n=st.integers(2, 64), t_max=st.floats(0.0, 80.0), **draws)
def test_vertex_gaps_against_exact(n, t_max, seed, decades):
    # Rows of the LP flow toward e_0 (the curves _fit_rate reads), from the start
    # point down to distances near the flush floor, as a block and one row alone.
    rng = np.random.default_rng(seed)
    c = np.sort(rng.uniform(-1.0, 1.0, n))[::-1]
    rows = softmax_rows(simplex_point(rng, n, decades), c, np.linspace(0.0, t_max, 5))
    for row, got in zip(rows, _vertex_gaps(rows)):
        with decimal.localcontext(EXACT):
            exact = abs(Decimal(float(row[0])) - 1) + sum(Decimal(float(x)) for x in row[1:])
        assert_within(got, exact, exact, VERTEX_GAP_ULPS * n)
        assert_within(_vertex_gaps(row), exact, exact, VERTEX_GAP_ULPS * n)
