"""Seeded invariant suites behind the CLI's check commands.

Each suite draws its own deterministic generator from (seed, tag) and
returns a list of named results.  A result's threshold is the one place
its bound is written: ``check-all`` reports every suite, and the
``isometry`` command reads its verdict from :func:`isometry_results`.
The bracket and conservation bounds are named constants in
:mod:`simplexgeo.hamiltonian`, shared with ``integrability_suite``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import connections, flows, hamiltonian, metrics, sequence_core, transforms
from .hamiltonian import BRACKET_TOL, CANONICAL_TOL, CONSERVATION_TOL
from .sequence_core import SequenceSpec, make_simplex_point, random_simplex_point, random_tangent

if TYPE_CHECKING:
    from ._draws import Draws


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    threshold: float
    passed: bool

    def line(self) -> str:
        mark = "pass" if self.passed else "FAIL"
        return f"[{mark}] {self.name}: {self.value:.3e} (<= {self.threshold:.1e})"


def _result(name: str, value: float, threshold: float) -> CheckResult:
    return CheckResult(name, float(value), threshold, bool(value <= threshold))


def _rng(seed: int, tag: int) -> Draws:
    """numpy's ``default_rng(SeedSequence([seed, tag]))`` stream."""
    from ._draws import Draws  # loaded on the first draw, not with the package

    return Draws([seed, tag])


def check_sequence_core(dim: int, seed: int) -> list[CheckResult]:
    rng = _rng(seed, 0)
    idem = 0.0
    triangle = -np.inf
    for _ in range(20):
        p = random_simplex_point(rng, dim)
        v = random_tangent(rng, p)
        again = sequence_core.make_tangent(p, v.comps)
        idem = max(idem, 0.0 if np.array_equal(again.comps, v.comps) else 1.0)
        a = rng.standard_normal(dim)
        b = rng.standard_normal(dim)
        q = float(rng.uniform(1.1, 4.0))
        triangle = max(
            triangle,
            sequence_core.lq_norm(a + b, q)
            - sequence_core.lq_norm(a, q)
            - sequence_core.lq_norm(b, q),
        )
    # 0.5 up to dim 250; above, the ratio keeps r^(4 dim) at 2^-1000, clear of underflow.
    spec = SequenceSpec("geometric", dim, ratio=max(0.5, 2.0 ** (-1000.0 / (4 * dim))))
    pts = sequence_core.refine(spec, [dim, 2 * dim, 4 * dim])
    diffs = []
    for lo, hi in zip(pts, pts[1:]):
        padded = np.zeros(hi.dim)
        padded[: lo.dim] = lo.coords
        diffs.append(sequence_core.lq_norm(padded - hi.coords, 2.0))
    monotone = 0.0 if diffs[0] > diffs[1] else 1.0
    return [
        _result("make_tangent idempotent (bitwise)", idem, 0.0),
        _result("lq_norm triangle defect", triangle, 1e-12),
        _result("refine successive-diff decrease", monotone, 0.0),
    ]


def isometry_results(rng: Draws, dim: int, qs: tuple, trials: int) -> list[CheckResult]:
    """Round trip and q-root identity at every q in ``qs``, plus the q = 2 isometry.

    ``rng`` is a numpy Generator or a ``Draws``.
    """
    round_trip = 0.0
    isometry = 0.0
    scaled = 0.0
    for _ in range(trials):
        p = random_simplex_point(rng, dim)
        v = random_tangent(rng, p)
        w = random_tangent(rng, p)
        for q in qs:
            back = transforms.inverse(transforms.forward(p, q))
            round_trip = max(round_trip, float(np.abs(back.coords - p.coords).max()))
            lhs = sequence_core.lq_norm(transforms.pushforward(v, q).comps, q)
            rhs = metrics.finsler_norm(v, q) / q
            scaled = max(scaled, abs(lhs - rhs) / max(rhs, 1e-30))
        fr = metrics.fr_inner(v, w)
        isometry = max(isometry, abs(fr - transforms.pullback_inner(v, w)) / max(1.0, abs(fr)))
    return [
        _result("root transform round trip", round_trip, 1e-14),
        _result("square-root isometry residual", isometry, 1e-12),
        _result("q-root scaled-isometry rel residual", scaled, 1e-10),
    ]


def check_transforms(dim: int, seed: int) -> list[CheckResult]:
    return isometry_results(_rng(seed, 1), dim, (1.5, 2.0, 3.0, 4.0), 20)


def check_metrics(dim: int, seed: int) -> list[CheckResult]:
    rng = _rng(seed, 2)
    finsler_vs_fr = 0.0
    triangle = -np.inf
    endpoints = 0.0
    quad = 0.0
    for k in range(20):
        p = random_simplex_point(rng, dim)
        r = random_simplex_point(rng, dim)
        s = random_simplex_point(rng, dim)
        v = random_tangent(rng, p)
        finsler = metrics.finsler_norm(v, 2.0)
        finsler_vs_fr = max(
            finsler_vs_fr,
            abs(finsler - 2.0 * np.sqrt(metrics.fr_inner(v, v))) / max(1.0, finsler),
        )
        d_pr = metrics.fr_distance(p, r)
        triangle = max(triangle, d_pr - metrics.fr_distance(p, s) - metrics.fr_distance(s, r))
        endpoints = max(
            endpoints,
            float(np.abs(metrics.fr_geodesic(p, r, 0.0).coords - p.coords).max()),
            float(np.abs(metrics.fr_geodesic(p, r, 1.0).coords - r.coords).max()),
        )
        if k < 3:
            quad = max(quad, abs(_geodesic_length(p, r) - d_pr))
    return [
        _result("finsler(q=2) vs 2 sqrt(fr_inner)", finsler_vs_fr, 1e-12),
        _result("fr_distance triangle defect", triangle, 1e-12),
        _result("fr_geodesic endpoint error", endpoints, 1e-12),
        _result("geodesic quadrature length error", quad, 1e-4),
    ]


#: Midpoint-rule nodes and central-difference step of :func:`_geodesic_length`.
_LENGTH_NODES = 1000
_LENGTH_STEP = 1e-6
#: Coordinates per block of :func:`_geodesic_length` (nodes x N), which bounds
#: its working memory at every N.
_LENGTH_BLOCK = 4096


def _geodesic_length(p, r) -> float:
    """Midpoint-rule length of the geodesic, with finite-difference speed.

    Each run of nodes is one ``fr_geodesic_block`` call on the midpoints
    followed by their +h and then their -h neighbours.  Each velocity row
    is projected as ``make_tangent`` projects it and paired as ``fr_inner``
    pairs it, and the node terms are added in node order, so the length is
    bitwise the one a loop over nodes would give.
    """
    n, h = _LENGTH_NODES, _LENGTH_STEP
    ts = (np.arange(n) + 0.5) / n
    run = max(1, _LENGTH_BLOCK // (3 * p.dim))
    terms = []
    for t in (ts[k : k + run] for k in range(0, n, run)):
        block = metrics.fr_geodesic_block(p, r, np.concatenate((t, t + h, t - h)))
        mid, plus, minus = block.reshape(3, t.size, p.dim)
        vel = sequence_core.zero_sum_rows((plus - minus) / (2.0 * h))
        terms.append(np.sqrt(0.25 * (vel * vel / mid).sum(axis=1)) / n)
    # cumsum adds strictly left to right, as the loop's running total did.
    return float(np.cumsum(np.concatenate(terms))[-1])


def check_connections(dim: int, seed: int) -> list[CheckResult]:
    rng = _rng(seed, 3)
    residual = 0.0
    gauge = 0.0
    zero_sum = 0.0
    for _ in range(10):
        p0 = random_simplex_point(rng, dim)
        v0 = random_tangent(rng, p0, max_ratio=0.5)
        geo = connections.make_e_geodesic(p0, v0)
        t = float(rng.uniform(-0.5, 0.5))
        residual = max(residual, float(np.abs(connections.e_connection_residual(geo, t)).max()))
        shifted = connections.EGeodesic(p0, geo.a + 5.0)
        for tt in (-1.0, 0.3, 2.0):
            gauge = max(gauge, float(np.abs(geo(tt).coords - shifted(tt).coords).max()))
        v = random_tangent(rng, p0).comps
        w = random_tangent(rng, p0).comps
        out = connections.alpha_connection(lambda _: v, lambda _: w, p0, q=float(rng.uniform(1.5, 4.0)))
        zero_sum = max(zero_sum, abs(float(out.comps.sum())))
    return [
        _result("e-geodesic equation residual", residual, 1e-6),
        _result("e-geodesic gauge invariance", gauge, 1e-14),
        _result("alpha-connection tangency", zero_sum, 1e-10),
    ]


def check_flows(dim: int, seed: int) -> list[CheckResult]:
    rng = _rng(seed, 4)
    ode = 0.0
    match = 0.0
    chain = 0.0
    for _ in range(10):
        obj = flows.LinearObjective(rng.uniform(-1.0, 1.0, size=dim))
        p0 = random_simplex_point(rng, dim)
        ode = max(ode, flows.flow_ode_residual(obj, p0, float(rng.uniform(0.0, 2.0))))
        match = max(match, flows.flow_geodesic_correspondence(obj, p0))
        v = random_tangent(rng, p0)
        four_w = sequence_core.make_tangent(p0, 4.0 * flows.gradient_field(obj, p0.coords))
        chain = max(chain, abs(metrics.fr_inner(four_w, v) - float(np.dot(obj.c, v.comps))))
    obj = flows.LinearObjective(np.array([1.0, 0.0] + [-(k + 1.0) for k in range(dim - 2)]))
    p0 = make_simplex_point(SequenceSpec("uniform", dim))
    # c spans dim - 1, and dt * dim <= 1/2 keeps every RK4 stage in the simplex; up to
    # dim 500 that is 2000 steps of exactly 1e-3, ending at exactly t = 2.
    rk4 = flows.integrate_rk4(obj, p0, t_max=2.0, dt=2.0 / max(2000, 4 * dim))
    closed = flows.flow_closed_form(obj, p0, rk4.times[-1])
    endpoint = float(np.abs(rk4.coords[-1] - closed.coords).sum())
    return [
        _result("flow ODE residual (l1)", ode, 1e-6),
        _result("flow vs e-geodesic deviation (l1)", match, 1e-12),
        _result("metric-normalization chain identity", chain, 1e-12),
        _result("rk4 oracle endpoint error (l1)", endpoint, 1e-6),
    ]


def check_hamiltonian(dim: int, seed: int) -> list[CheckResult]:
    rng = _rng(seed, 5)
    c = np.sort(rng.uniform(0.5, 3.0, size=dim))[::-1].copy()
    report = hamiltonian.integrability_suite(c, trials=3, seed=seed)
    kahler = 0.0
    z = hamiltonian.random_complex_point(rng, dim)
    canonical = abs(hamiltonian.poisson_bracket(*hamiltonian.coordinate_jets(z, 0)) - 1.0)
    for _ in range(3):
        z = hamiltonian.random_complex_point(rng, dim)
        kahler = max(kahler, hamiltonian.kahler_gradient_check(hamiltonian.QuadraticHamiltonian(c), z))
    # The suite's verdict also requires exactly zero analytic brackets.
    brackets = report["brackets_max_abs"]
    return [
        CheckResult(
            "poisson brackets max abs",
            float(brackets),
            BRACKET_TOL,
            bool(brackets <= BRACKET_TOL and report["pass"]),
        ),
        _result("first-integral conservation drift", report["conservation_max_drift"], CONSERVATION_TOL),
        _result("gram determinant positivity", 0.0 if report["gram_det"] > 0 else 1.0, 0.0),
        _result("kahler field identity residual", kahler, 1e-10),
        _result("canonical pair bracket error", canonical, CANONICAL_TOL),
    ]


def check_all(dim: int, seed: int) -> list[CheckResult]:
    results: list[CheckResult] = []
    results += check_sequence_core(dim, seed)
    results += check_transforms(dim, seed)
    results += check_metrics(dim, seed)
    results += check_connections(dim, seed)
    results += check_flows(dim, seed)
    results += check_hamiltonian(dim, seed)
    return results
