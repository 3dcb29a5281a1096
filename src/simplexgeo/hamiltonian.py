"""Diagonal quadratic Hamiltonians on complex projective space, truncated.

Unit complex vectors modulo phase carry the Fubini-Study structure; all
inner products are taken at unit-sphere representatives via horizontal
lifts (subtracting the complex component along the representative).
Momentum maps are imaginary-valued; only their real coefficients are
returned, the factor i being fixed bookkeeping.

Bracket convention: {f, g} = 2i sum_j (df/dzbar_j dg/dz_j - df/dz_j dg/dzbar_j),
pinned numerically by {Re z_0, Im z_0} = 1.  The flow a diagonal quadratic H
with weights w generates, z_n(t) = z_n(0) exp(2i w_n t), carries H in the
first slot: d f(z(t))/dt = {H, f} = -{f, H}.  The observables differentiated
are the diagonal quadratics (:func:`wirtinger`) and the coordinates
Re z_k, Im z_k of the canonical pair (:func:`coordinate_jets`).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    ComplexResidue,
    DimensionMismatch,
    InvalidParameter,
    NonFiniteInput,
    NotNormalizable,
)
from .sequence_core import _read_only, _require_finite, membership_tol

if TYPE_CHECKING:
    from ._draws import Draws

#: Central-difference step for numeric Wirtinger derivatives.
WIRTINGER_STEP = 1e-6
#: Largest numeric bracket |{f, g}| accepted between commuting observables.
BRACKET_TOL = 1e-8
#: Largest drift of a single-mode integral accepted along the explicit flow.
CONSERVATION_TOL = 1e-10
#: Largest error accepted in the canonical pair {Re z_0, Im z_0} = 1.
CANONICAL_TOL = 1e-10
#: Most complex entries in one block of the finite-difference perturbation
#: stack (1 MiB); every N <= 128 is one block, and memory stays flat in N.
_STACK_BLOCK = 2**16


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComplexPoint:
    """Unit vector in complex l2: sum |z_n|^2 = 1."""

    coords: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.coords, dtype=complex)
        if a.ndim != 1 or a.size < 1:
            raise DimensionMismatch("coords must be a nonempty one-dimensional vector")
        _require_finite(a, "coordinate vector")
        s = float(np.sum(np.abs(a) ** 2))
        if abs(s - 1.0) > membership_tol(a.size):
            raise NotNormalizable(f"sum |z|^2 = {s}, expected 1")
        object.__setattr__(self, "coords", _read_only(a))

    @property
    def dim(self) -> int:
        return self.coords.size


def _coords_of(z) -> np.ndarray:
    if isinstance(z, ComplexPoint):
        return z.coords
    return np.asarray(z, dtype=complex)


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """Diagonal quadratic observable sum_n weights_n |z_n|^2."""

    weights: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.weights, dtype=float)
        _require_finite(a, "weight vector")
        object.__setattr__(self, "weights", _read_only(a))

    @property
    def dim(self) -> int:
        return self.weights.size

    def __call__(self, z) -> float:
        return hamiltonian_value(self, z)


def _index(value, what: str) -> int:
    """An integer argument as an int; a bool (``True`` is not index 1) or a non-integer raises."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InvalidParameter(f"{what} must be an integer, got {value!r}")


def _check_dim(H: QuadraticHamiltonian, n: int) -> None:
    if H.dim != n:
        raise DimensionMismatch(f"weights dim {H.dim}, point dim {n}")


def coordinate_hamiltonian(c, n: int) -> QuadraticHamiltonian:
    """The single-mode integral H_n: weight c_n on coordinate n, zero elsewhere."""
    c = np.asarray(c, dtype=float)
    n = _index(n, "mode index")
    if n < 0:
        raise InvalidParameter(f"mode index must be >= 0, got {n}")
    if n >= c.size:
        raise DimensionMismatch(f"mode index {n}, coefficient dim {c.size}")
    w = np.zeros(c.size)
    w[n] = c[n]
    return QuadraticHamiltonian(w)


# ---------------------------------------------------------------------------
# the torus momentum map and Hamiltonian values
# ---------------------------------------------------------------------------


def momentum_torus(z: ComplexPoint | np.ndarray) -> np.ndarray:
    """Real coefficients (1/2) |z_n|^2 of the torus-action momentum.

    Entries are nonnegative and sum to 1/2; twice the output is a point
    of the closed simplex, and on real positive lifts doubling inverts
    the square-root transform coordinate by coordinate.
    """
    a = _coords_of(z)
    return 0.5 * np.abs(a) ** 2


def hamiltonian_value(H: QuadraticHamiltonian, z: ComplexPoint | np.ndarray) -> float:
    """sum c_n |z_n|^2; independent of the phase representative."""
    a = _coords_of(z)
    _check_dim(H, a.size)
    return float((H.weights * np.abs(a) ** 2).sum())


# ---------------------------------------------------------------------------
# Wirtinger calculus and the Poisson bracket
# ---------------------------------------------------------------------------


class _ConjugateJet(tuple):
    """A 1-jet (dH/dz, dH/dzbar) whose dH/dzbar equals conj(dH/dz), both arrays read-only.

    Only :func:`_jets` makes one, after checking the equality, and it
    makes both arrays read-only first; :func:`poisson_bracket` skips its
    complex residue for a pair of them.
    """

    __slots__ = ()


def _jets(dz: np.ndarray, dzbar: np.ndarray) -> list[tuple]:
    """The rows of dz and dzbar as 1-jets, read-only; each exact conjugate pair is certified.

    The certificate is one elementwise comparison per jet, so a jet with a
    NaN stays a plain tuple (and keeps the bracket's residue check).
    """
    dz.setflags(write=False)
    dzbar.setflags(write=False)
    exact = (dzbar == dz.conjugate()).all(axis=1)
    return [(_ConjugateJet if ok else tuple)((f, g)) for f, g, ok in zip(dz, dzbar, exact)]


def _row_values(H: QuadraticHamiltonian, abs2: np.ndarray) -> np.ndarray:
    """H at every row of a perturbation block from the rows' |z|^2, bitwise :func:`hamiltonian_value`."""
    return (H.weights * abs2).sum(axis=1)


def _mode_values(w: np.ndarray, abs2: np.ndarray) -> np.ndarray:
    """Single-mode quadratics w_k |z_k + e|^2 from the (4, S) perturbed |z_k + e|^2 of their coordinates."""
    return w * abs2


def _derivatives(dz: np.ndarray, dzbar: np.ndarray, at, values: np.ndarray) -> None:
    """Central differences from (plus_x, minus_x, plus_y, minus_y) values, into dz[at] and dzbar[at]."""
    plus_x, minus_x, plus_y, minus_y = values
    df_dx = (plus_x - minus_x) / (2.0 * WIRTINGER_STEP)
    df_dy = (plus_y - minus_y) / (2.0 * WIRTINGER_STEP)
    dz[at] = 0.5 * (df_dx - 1j * df_dy)
    dzbar[at] = 0.5 * (df_dx + 1j * df_dy)


def wirtinger(hamiltonians: list[QuadraticHamiltonian], z, numeric: bool = False) -> list[tuple]:
    """1-jets (dH/dz, dH/dzbar) of every diagonal quadratic at z, in order.

    The exact jets are (w * conj(z), w * z); with ``numeric`` set (how the
    oracle cross-checks them) they are central differences of H at the 4N
    perturbed points z + e_j, z - e_j, z + i e_j and z - i e_j, e_j the
    step on coordinate j.  Anything but a :class:`QuadraticHamiltonian`
    raises before any work.

    A quadratic with exactly one nonzero weight w_k (a single-mode integral)
    skips the stack: it is evaluated four times, at z_k + e, z_k - e,
    z_k + i e and z_k - i e, as w_k |z_k + e|^2 with the stack's own float
    operations.  Off coordinate k both values of each difference are the
    one float w_k |z_k|^2, so its jet there is an exact zero.  That is
    bitwise the stack's jet whenever every |row|^2, the four values and
    w_k |z_k|^2 are finite: the other weights then add exact zeros to the
    one product, and where that product is zero the stack's sum can differ
    only in the sign of a zero, which each difference drops.  A quadratic
    for which that fails goes to the stack.

    Every other quadratic reads one perturbation stack of 4N rows, built
    only if one needs it, as z +- D, so that each row is bitwise the vector
    a per-coordinate loop would evaluate; they share one |row|^2.  The
    stack is built in blocks of at most ``_STACK_BLOCK`` entries (whole
    coordinates at a time, at least one).

    The arrays returned are read-only.  A jet whose dH/dzbar is exactly
    conj(dH/dz), which is every jet without a NaN, is certified, and
    :func:`poisson_bracket` skips the complex residue of a certified pair.
    """
    a = _coords_of(z)
    n = a.size
    for H in hamiltonians:
        if not isinstance(H, QuadraticHamiltonian):
            raise InvalidParameter(f"wirtinger takes QuadraticHamiltonians, got {type(H).__name__}")
        _check_dim(H, n)
    weights = np.array([H.weights for H in hamiltonians]).reshape(len(hamiltonians), n)
    if not numeric:
        return _jets(weights * a.conjugate(), weights * a)
    dz = np.zeros((len(hamiltonians), n), dtype=complex)
    dzbar = np.zeros_like(dz)
    # Python-level supports: numpy's counting kernels would touch more of its code pages (peak RSS).
    supports = (H.weights.nonzero()[0] for H in hamiltonians)
    modes = [(i, support[0]) for i, support in enumerate(supports) if support.size == 1]
    single, k = np.array(modes, dtype=np.intp).reshape(-1, 2).T
    w = weights[single, k]
    step = WIRTINGER_STEP
    with np.errstate(over="ignore", invalid="ignore"):
        abs2 = np.abs(np.concatenate((a, a + step, a - step, a + 1j * step, a - 1j * step))) ** 2
        values = _mode_values(w, abs2[n:].reshape(4, n)[:, k])
        alone = np.isfinite(values).all(axis=0) & np.isfinite(w * abs2[k])
    alone &= bool(np.isfinite(abs2).all())
    _derivatives(dz, dzbar, (single[alone], k[alone]), values[:, alone])
    done = set(single[alone].tolist())
    stacked = [(i, H) for i, H in enumerate(hamiltonians) if i not in done]
    width = max(1, _STACK_BLOCK // (4 * n))
    for lo in range(0, n if stacked else 0, width):
        block = slice(lo, min(n, lo + width))
        m = block.stop - lo
        d = np.zeros((m, n), dtype=complex)
        d[np.arange(m), np.arange(lo, block.stop)] = WIRTINGER_STEP
        abs2 = np.abs(np.concatenate((a + d, a - d, a + 1j * d, a - 1j * d))) ** 2
        for i, H in stacked:
            _derivatives(dz, dzbar, (i, block), _row_values(H, abs2).reshape(4, m))
    return _jets(dz, dzbar)


def coordinate_jets(z, k: int) -> tuple[tuple, tuple]:
    """Exact 1-jets of Re z_k and Im z_k at z: (1/2, 1/2) and (-i/2, i/2) at coordinate k.

    Both are zero elsewhere, and ``poisson_bracket(*coordinate_jets(z, k))``
    is the canonical pair {Re z_k, Im z_k} = 1.  Both jets are read-only
    and certified conjugate pairs.
    """
    n = _coords_of(z).size
    k = _index(k, "coordinate index")
    if k < 0:
        raise InvalidParameter(f"coordinate index must be >= 0, got {k}")
    if k >= n:
        raise DimensionMismatch(f"coordinate index {k}, point dim {n}")
    dz = np.zeros((2, n), dtype=complex)
    dzbar = np.zeros_like(dz)
    dz[:, k] = 0.5, -0.5j
    dzbar[:, k] = 0.5, 0.5j
    return tuple(_jets(dz, dzbar))


def poisson_bracket(df: tuple, dg: tuple) -> float:
    """Canonical bracket 2i sum_j (df/dzbar dg/dz - df/dz dg/dzbar) of two 1-jets.

    ``df`` and ``dg`` are (df/dz, df/dzbar) pairs at one point, from
    :func:`wirtinger` or :func:`coordinate_jets`: a bracket reads nothing
    else.  Real observables give a real bracket; an imaginary part above
    1e-10 signals a jet of a non-real one and raises.  That residue is
    skipped only when both jets are certified conjugate pairs (as
    :func:`wirtinger` and :func:`coordinate_jets` return them): there each
    term's real part is one rounded product minus itself, so the residue
    is +-0 or NaN and cannot trip the check, and the pair costs four real
    products and one sum.  Any other pair, a plain tuple from an outside
    caller or a jet with a NaN, is checked, which adds two complex
    products, their difference and a complex sum.

    The returned real part is evaluated in real arithmetic (for real
    observables the bracket reduces to -4 sum Im(conj(df/dz) dg/dz)), so
    structurally cancelling terms, e.g. derivatives with disjoint
    supports, give exactly 0.0 regardless of fused-multiply complex
    rounding.
    """
    df_dz, df_dzbar = df
    dg_dz, dg_dzbar = dg
    if not (type(df) is _ConjugateJet and type(dg) is _ConjugateJet):
        value = 2.0j * (df_dzbar * dg_dz - df_dz * dg_dzbar).sum()
        if abs(value.imag) > 1e-10:
            raise ComplexResidue(f"bracket has imaginary part {value.imag}")
    return -4.0 * float((df_dz.real * dg_dz.imag - df_dz.imag * dg_dz.real).sum())


def _max_or_nan(values: list[float]) -> float:
    """Largest of the values (0.0 for none), or NaN if one is NaN: ``max(acc, nan)`` keeps acc."""
    return float(np.max(values, initial=0.0))


def bracket_max(hamiltonians: list[QuadraticHamiltonian], z) -> tuple[float, float]:
    """Largest |{f, g}| over pairs f before g: (analytic path, finite-difference path).

    A bracket reads only the 1-jets of f and g at z, so each path makes
    one :func:`wirtinger` call for all M quadratics (the numeric one
    evaluates each single-mode integral four times and builds one
    perturbation stack of 4N rows for the others, if any) and every pair
    reads them.  Each pair still goes through :func:`poisson_bracket`;
    jets without a NaN are certified conjugate pairs, so a pair costs the
    real-arithmetic sum alone, and a pair with a NaN jet also gets the
    imaginary-part check.  A NaN bracket makes its path's maximum NaN.
    Products that overflow (weights near the float range) print no warning.
    """
    analytic_abs = []
    numeric_abs = []
    with np.errstate(over="ignore", invalid="ignore"):
        analytic = wirtinger(hamiltonians, z)
        numeric = wirtinger(hamiltonians, z, numeric=True)
        for k in range(len(hamiltonians)):
            for m in range(k + 1, len(hamiltonians)):
                analytic_abs.append(abs(poisson_bracket(analytic[k], analytic[m])))
                numeric_abs.append(abs(poisson_bracket(numeric[k], numeric[m])))
    return _max_or_nan(analytic_abs), _max_or_nan(numeric_abs)


def brackets_vanish(analytic_max: float, numeric_max: float) -> bool:
    """Verdict on :func:`bracket_max`: analytic exactly 0.0, numeric <= ``BRACKET_TOL``."""
    return bool(analytic_max == 0.0 and numeric_max <= BRACKET_TOL)


# ---------------------------------------------------------------------------
# flows and the Kaehler identity
# ---------------------------------------------------------------------------


def hamiltonian_flow(H: QuadraticHamiltonian, z0: ComplexPoint, t: float) -> ComplexPoint:
    """Explicit flow z_n(t) = z_n(0) exp(2i w_n t).

    Pure phase rotations: every modulus |z_n| is preserved, hence the
    value of the Hamiltonian and of every single-mode integral.  A phase
    that overflows is reported by :class:`ComplexPoint`'s typed error alone.
    """
    _check_dim(H, z0.dim)
    if not math.isfinite(t):
        raise NonFiniteInput(f"time {t} is not finite")
    with np.errstate(over="ignore", invalid="ignore"):
        coords = z0.coords * np.exp(2.0j * H.weights * t)
    return ComplexPoint(coords)


def _horizontal(z: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Horizontal lift at z: remove the complex component along z."""
    return v - np.vdot(z, v) * z


def horizontal_gradient(H: QuadraticHamiltonian, z: ComplexPoint) -> np.ndarray:
    """Fubini-Study gradient at the representative: P_z(2 Diag(w) z)."""
    a = z.coords
    return _horizontal(a, 2.0 * H.weights * a)


def hamiltonian_vector_field(H: QuadraticHamiltonian, z: ComplexPoint) -> np.ndarray:
    """Symplectic partner of the gradient: P_z(2i Diag(w) z)."""
    a = z.coords
    return _horizontal(a, 2.0j * H.weights * a)


def kahler_gradient_check(H: QuadraticHamiltonian, z: ComplexPoint) -> float:
    """Norm of X_H - i grad H after horizontal projection; zero on a Kaehler space."""
    return float(np.linalg.norm(hamiltonian_vector_field(H, z) - 1j * horizontal_gradient(H, z)))


# ---------------------------------------------------------------------------
# integrability suite
# ---------------------------------------------------------------------------


def random_complex_point(rng: Draws, dim: int) -> ComplexPoint:
    """Unit complex vector with rotation-invariant direction.

    ``rng`` is a numpy Generator or a ``Draws``: only its ``standard_normal`` is called.
    """
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return ComplexPoint(z / np.linalg.norm(z))


def integrability_suite(c, trials: int, seed: int) -> dict:
    """Numerical witness that the diagonal quadratics commute and persist.

    For seeded random unit vectors: all pairwise brackets of the
    single-mode integrals (and of each against the full Hamiltonian)
    vanish exactly on the analytic path and below ``BRACKET_TOL``
    numerically; every mode energy is conserved along the explicit flow
    to ``CONSERVATION_TOL``; and the lifted derivative vectors at a
    generic point have a positive Gram determinant, witnessing linear
    independence.  Independence requires every weight to be nonzero; a
    zero weight fails the Gram check.

    Trial t draws from ``Draws(seed, spawn_key=(t,))`` and the Gram point from
    ``Draws(seed, spawn_key=(trials,))``: the streams of the children of numpy's
    ``SeedSequence(seed).spawn(trials + 1)``.  A seed that is not a non-negative
    integer raises ``InvalidParameter``.
    """
    from ._draws import Draws  # loaded on the first draw, not with the package

    c = np.asarray(c, dtype=float)
    trials = _index(trials, "trials")
    if trials < 1:
        raise InvalidParameter(f"trials must be >= 1, got {trials}")
    n = c.size
    h_full = QuadraticHamiltonian(c)
    h_modes = [coordinate_hamiltonian(c, k) for k in range(n)]
    maxima = []  # (analytic, numeric) per trial
    drifts = []
    for trial in range(trials):
        z = random_complex_point(Draws(seed, spawn_key=(trial,)), n)
        maxima.append(bracket_max([h_full, *h_modes], z))
        path = [z.coords] + [hamiltonian_flow(h_full, z, t).coords for t in (0.1, 1.0, 10.0)]
        # Column n is H_n along the path: a single-mode weight row adds only exact zeros.
        energy = c * np.abs(np.array(path)) ** 2
        drifts.append(float(np.abs(energy[1:] - energy[0]).max()))
    analytic_max, numeric_max = (_max_or_nan(path) for path in zip(*maxima))
    drift_max = _max_or_nan(drifts)

    # Independence is witnessed on the ambient lifts, whose derivatives have
    # disjoint supports; the horizontal gradients satisfy one exact relation
    # at finite truncation (sum_n H_n / c_n is constant on the sphere).
    # Gradients are unit-normalized first: independence is scale-invariant,
    # and the raw determinant underflows for fast-decaying weights.  A nonzero
    # gradient whose norm overflows (|c_k z_k| > 1e154) or underflows to 0.0
    # (< 1e-162) is divided by its largest modulus.  Disjoint supports
    # make every off-diagonal Gram entry an exact zero, so the matrix is its
    # diagonal d.  Its determinant is taken as det takes it from LU factors:
    # exp of the left-to-right sum of log d_i, in libm (a product or a
    # compensated sum rounds differently), with -inf for a zero d_i.  A test
    # pins these bits to np.linalg.det of the full matrix.
    zg = random_complex_point(Draws(seed, spawn_key=(trials,)), n)
    log_det = 0.0
    for g, _ in wirtinger(h_modes, zg):
        with np.errstate(over="ignore", invalid="ignore"):
            norm = np.linalg.norm(g)
            if not 0.0 < norm < math.inf and g.any():
                g = g / np.abs(g).max()
                norm = np.linalg.norm(g)
        g = g / norm if norm > 0.0 else g
        d = np.vdot(g, g).real
        log_det += -math.inf if d == 0.0 else math.log(d)
    try:
        gram_det = math.exp(log_det)
    except OverflowError:
        gram_det = math.inf

    passed = (
        brackets_vanish(analytic_max, numeric_max)
        and drift_max <= CONSERVATION_TOL
        and gram_det > 0.0
    )
    return {
        "brackets_max_abs": _max_or_nan([analytic_max, numeric_max]),
        "conservation_max_drift": drift_max,
        "gram_det": gram_det,
        "pass": bool(passed),
        "seed": int(seed),
    }
