"""Truncated-sequence data model.

An N-vector here always means the first N coordinates of an infinite
sequence.  Points of the open probability simplex carry a ``tail_bound``
recording how much mass the truncation may have discarded, so that
refinement studies (growing N) can compare truncation levels honestly.

All types are immutable values and every operation is a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    BaseMismatch,
    DimensionTooSmall,
    InvalidExponent,
    InvalidParameter,
    LengthMismatch,
    NonFiniteInput,
    NonPositiveCoordinate,
    NotNormalizable,
    NoTailModel,
    RatioOutOfRange,
)

if TYPE_CHECKING:
    from ._draws import Draws

#: Smallest positive normal double; underflow flush target for softmax curves.
TINY = float(np.finfo(float).tiny)
#: Most coordinates one block of softmax rows holds (whole rows, at least one);
#: each float64 temporary of a block is then 128 KiB.  Read at call time.
_SOFTMAX_BLOCK = 2**14


def membership_tol(dim: int) -> float:
    """Absolute tolerance for membership checks: 1e-12 scaled by N."""
    return 1e-12 * dim


def _read_only(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=a.dtype, copy=True)
    out.setflags(write=False)
    return out


def _require_finite(a: np.ndarray, what: str) -> None:
    if not np.logical_and.reduce(np.isfinite(a), axis=None):
        raise NonFiniteInput(f"{what} contains NaN or infinity")


def _require_vector(a: np.ndarray, what: str) -> None:
    if a.ndim != 1:
        raise DimensionTooSmall(f"{what} must be a one-dimensional vector")


def check_exponent(q: float | None) -> None:
    """Raise :class:`InvalidExponent` unless 1 < q < inf."""
    if q is None or not (1.0 < q < math.inf):
        raise InvalidExponent(f"q must lie in (1, inf), got {q}")


def check_simplex(a: np.ndarray, tail_bound: float) -> None:
    """Raise the typed error of the first part of :class:`SimplexPoint`'s rule that the
    float array ``a`` fails with ``tail_bound``: shape, finiteness, positivity, tail bound, sum."""
    _require_vector(a, "coords")
    if a.size < 2:
        raise DimensionTooSmall(f"need at least 2 coordinates, got {a.size}")
    s, tol = float(np.add.reduce(a, axis=None)), membership_tol(a.size)
    # A finite sum has finite terms, so with a positive minimum it settles the next two parts.
    if not (math.isfinite(s) and np.minimum.reduce(a, axis=None) > 0.0):
        _require_finite(a, "coordinate vector")
        if not np.minimum.reduce(a, axis=None) > 0.0:
            raise NonPositiveCoordinate("simplex coordinates must be strictly positive")
    if not 0.0 <= tail_bound < math.inf:
        raise NotNormalizable(f"tail bound must be finite and >= 0, got {tail_bound}")
    if tail_bound == 0.0:
        if not abs(s - 1.0) <= tol:
            raise NotNormalizable(f"coordinates sum to {s}, expected 1")
    elif not 1.0 - tail_bound - tol <= s <= 1.0 + tol:
        raise NotNormalizable(f"coordinates sum to {s}, outside [1 - {tail_bound}, 1]")


def check_zero_sum(a: np.ndarray) -> None:
    """Raise the typed error of :class:`TangentVector`'s rule on the components ``a``, if it fails."""
    s = np.add.reduce(a, axis=None)
    # A finite sum has finite terms; a NaN sum of finite terms fails no tolerance.
    if not math.isfinite(s):
        _require_finite(a, "component vector")
    if abs(s) > membership_tol(a.size):
        raise NotNormalizable(f"tangent components sum to {s}, expected 0")


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimplexPoint:
    """Strictly positive probability vector, possibly a lossy truncation.

    ``coords`` are the first N coordinates of a simplex element;
    ``tail_bound`` is an upper bound on the discarded mass (0 for exact
    inputs).  The coordinate sum must lie in [1 - tail_bound, 1] and equal
    1 when tail_bound is 0, up to the membership tolerance.
    """

    coords: np.ndarray
    tail_bound: float = 0.0

    def __post_init__(self):
        a = np.asarray(self.coords, dtype=float)
        check_simplex(a, self.tail_bound)
        object.__setattr__(self, "coords", _read_only(a))

    @property
    def dim(self) -> int:
        return self.coords.size

    def mass(self) -> float:
        return float(self.coords.sum())


@dataclass(frozen=True)
class TangentVector:
    """Zero-sum vector attached to a simplex point."""

    base: SimplexPoint
    comps: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.comps, dtype=float)
        _require_vector(a, "components")
        if a.size != self.base.dim:
            raise LengthMismatch(f"components have length {a.size}, base has {self.base.dim}")
        check_zero_sum(a)
        object.__setattr__(self, "comps", _read_only(a))


def same_point(p: SimplexPoint, r: SimplexPoint) -> bool:
    """Whether p and r are one point: equal coordinates and equal tail bound."""
    return p is r or (np.array_equal(p.coords, r.coords) and p.tail_bound == r.tail_bound)


def same_base(v: TangentVector, w: TangentVector) -> SimplexPoint:
    """The base point two tangents share; :class:`BaseMismatch` if they differ."""
    if not same_point(v.base, w.base):
        raise BaseMismatch("tangent vectors live at different base points")
    return v.base


@dataclass(frozen=True)
class SpherePoint:
    """Point of the unit lq sphere.

    ``mass_deficit`` mirrors :class:`SimplexPoint.tail_bound`: the q-th
    power sum may fall short of 1 by at most that much, so lossy
    truncations survive the root transform.
    """

    coords: np.ndarray
    q: float
    mass_deficit: float

    def __post_init__(self):
        check_exponent(self.q)
        a = np.asarray(self.coords, dtype=float)
        _require_vector(a, "coords")
        _require_finite(a, "coordinate vector")
        tol = membership_tol(a.size)
        s = float(np.sum(np.abs(a) ** self.q))
        if not (1.0 - self.mass_deficit - tol <= s <= 1.0 + tol):
            raise NotNormalizable(f"sum |x|^q = {s}, outside [1 - {self.mass_deficit}, 1]")
        object.__setattr__(self, "coords", _read_only(a))

    @property
    def dim(self) -> int:
        return self.coords.size


@dataclass(frozen=True)
class SphereTangent:
    """Vector tangent to the lq sphere at its base point."""

    base: SpherePoint
    comps: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.comps, dtype=float)
        _require_vector(a, "components")
        if a.size != self.base.dim:
            raise LengthMismatch(f"components have length {a.size}, base has {self.base.dim}")
        _require_finite(a, "component vector")
        x, q = self.base.coords, self.base.q
        pairing = float(np.sum(np.sign(x) * np.abs(x) ** (q - 1.0) * a))
        if abs(pairing) > membership_tol(a.size):
            raise NotNormalizable(f"tangency defect {pairing} at q={q}")
        object.__setattr__(self, "comps", _read_only(a))


# ---------------------------------------------------------------------------
# sequence specs and generators
# ---------------------------------------------------------------------------

_KINDS = ("uniform", "geometric", "explicit")
_NORMALIZATIONS = ("simplex", "none")
#: The ``file:`` keys a kind reads besides ``kind``, ``dim`` and ``normalize``.
_KIND_KEYS = {"geometric": ("ratio",), "explicit": ("coords",)}


@dataclass(frozen=True)
class SequenceSpec:
    """Recipe for a truncated sequence: kind, length, and normalization.

    Geometric specs carry the exact tail sum of the raw template
    (1, r, r^2, ...): ``tail_sum(N) = r^N / (1 - r)``.
    """

    kind: str
    dim: int
    ratio: float | None = None
    coords: np.ndarray | None = None
    normalize: str = "simplex"

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise NotNormalizable(f"unknown kind {self.kind!r}")
        if self.normalize not in _NORMALIZATIONS:
            raise NotNormalizable(f"unknown normalization {self.normalize!r}")
        if self.dim < 2:
            raise DimensionTooSmall(f"dim must be >= 2, got {self.dim}")
        if self.kind == "geometric":
            if self.ratio is None or not (0.0 < self.ratio < 1.0):
                raise RatioOutOfRange(f"geometric ratio must lie in (0, 1), got {self.ratio}")
        if self.kind == "explicit":
            if self.coords is None:
                raise NotNormalizable("explicit spec needs coords")
            a = np.asarray(self.coords, dtype=float)
            _require_vector(a, "coords")
            if a.size != self.dim:
                raise LengthMismatch(f"{a.size} coords but dim {self.dim}")
            object.__setattr__(self, "coords", _read_only(a))

    # -- raw template ------------------------------------------------------

    def template(self) -> np.ndarray:
        """First ``dim`` values of the raw, unnormalized sequence."""
        if self.kind == "uniform":
            return np.ones(self.dim)
        if self.kind == "geometric":
            return self.ratio ** np.arange(self.dim, dtype=float)
        return np.array(self.coords, dtype=float)

    @property
    def has_tail_model(self) -> bool:
        return self.kind == "geometric"

    def tail_sum(self, n: int) -> float:
        """Analytic upper bound on the raw template's tail from index n; ``tail_sum(0)``
        is the sum of the whole infinite template."""
        if not self.has_tail_model:
            raise NoTailModel(f"{self.kind} specs have no analytic tail")
        return self.ratio**n / (1.0 - self.ratio)

    # -- JSON form (``file:`` specs) ---------------------------------------

    @classmethod
    def from_json(cls, obj: dict) -> "SequenceSpec":
        coords = obj.get("coords")
        dim = obj["dim"]
        # bool is an int subclass; a JSON true is not a dimension.
        if type(dim) is not int:
            raise InvalidParameter(f"dim must be a JSON integer, got {dim!r}")
        spec = cls(
            kind=obj["kind"],
            dim=dim,
            ratio=obj.get("ratio"),
            coords=None if coords is None else np.asarray(coords, dtype=float),
            normalize=obj.get("normalize", "simplex"),
        )
        # A key the kind does not read (a misspelling included) would otherwise change the run unseen.
        unread = sorted(set(obj) - {"kind", "dim", "normalize", *_KIND_KEYS.get(spec.kind, ())})
        if unread:
            raise InvalidParameter(f"unknown key {unread[0]!r} in a {spec.kind} spec")
        return spec


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def make_simplex_point(spec: SequenceSpec) -> SimplexPoint:
    """Realize a spec as a validated simplex point.

    ``simplex`` normalization rescales the truncated template to unit sum
    (tail_bound 0).  Without normalization, kinds with a summable template
    are scaled by their infinite total ``tail_sum(0)``, so the truncation's
    coordinate sum is 1 minus the scaled tail, which becomes the tail_bound.
    """
    t = spec.template()
    _require_finite(t, "template")
    if not np.any(t != 0.0):
        raise NotNormalizable(f"all-zero {spec.kind} coords")
    if not np.all(t > 0.0):
        raise NonPositiveCoordinate(f"{spec.kind} coords must be strictly positive")
    # A uniform template has no tail model, so it is rescaled even without normalization.
    if spec.normalize == "simplex" or spec.kind == "uniform":
        return SimplexPoint(t / t.sum(), tail_bound=0.0)

    # normalize == "none"
    if spec.kind == "explicit":
        s = float(t.sum())
        if abs(s - 1.0) > membership_tol(t.size):
            raise NotNormalizable(
                f"explicit coords sum to {s}; pass normalize='simplex' to rescale"
            )
        return SimplexPoint(t, tail_bound=0.0)
    total = spec.tail_sum(0)
    return SimplexPoint(t / total, tail_bound=spec.tail_sum(spec.dim) / total)


def make_tangent(base: SimplexPoint, raw) -> TangentVector:
    """Attach a raw vector at ``base`` after projecting it with :func:`project_zero_sum`."""
    a = np.asarray(raw, dtype=float)
    if a.size != base.dim:
        raise LengthMismatch(f"raw vector has length {a.size}, base has dim {base.dim}")
    # Raw vectors come from outside (the CLI's --v0), so finiteness is checked
    # before the sum: a sum over both infinities would raise numpy's RuntimeWarning.
    _require_finite(a, "raw vector")
    _require_vector(a, "components")
    return TangentVector(base, project_zero_sum(a))


def project_zero_sum(a: np.ndarray) -> np.ndarray:
    """``a`` itself when its sum is within the membership tolerance of 0, else a new
    array: ``a`` projected by :func:`zero_sum_rows` (the mean subtracted, again while
    cancellation leaves the sum above tolerance) and held to :func:`check_zero_sum`.

    Only a projection can fail the rule: a kept ``a`` passes it, because the rule reads
    the same sum (a sum that is not finite has been checked for finite terms here).
    Keeping ``a`` bit for bit makes :func:`make_tangent` idempotent.
    """
    s = np.add.reduce(a, axis=None)
    if not math.isfinite(s):  # a finite sum has finite terms
        _require_finite(a, "raw vector")
    if not abs(s) > membership_tol(a.size):
        return a
    w = zero_sum_rows(a[None])[0]
    check_zero_sum(w)
    return w


def zero_sum_rows(raw: np.ndarray) -> np.ndarray:
    """Project each row of a (T, N) block as :func:`make_tangent` projects a vector.

    A row whose sum is within the membership tolerance of N is kept bit for
    bit; any other has its mean subtracted, again while its sum stays above
    that tolerance, at most five times.  Returns a new array; nothing is
    validated.
    """
    rows = np.array(raw, dtype=float)
    tol = membership_tol(rows.shape[1])
    s = rows.sum(axis=1)
    todo = np.abs(s) > tol
    for _ in range(5):
        if not todo.any():
            break
        rows[todo] -= (s[todo] / rows.shape[1])[:, None]
        s = rows.sum(axis=1)
        todo &= np.abs(s) > tol
    return rows


def lq_norm(v, q: float) -> float:
    """(sum |v_n|^q)^(1/q), scaled by the max entry for overflow safety."""
    check_exponent(q)
    a = np.abs(np.asarray(v, dtype=float))
    _require_finite(a, "vector")
    m = float(a.max()) if a.size else 0.0
    if m == 0.0:
        return 0.0
    return m * float(np.sum((a / m) ** q)) ** (1.0 / q)


def refine(spec: SequenceSpec, dims: list[int]) -> list[SimplexPoint]:
    """Truncations of one spec at increasing lengths, for Cauchy-in-N tests."""
    if any(b <= a for a, b in zip(dims, dims[1:])):
        raise InvalidParameter(f"dims must be strictly increasing, got {list(dims)}")
    if not spec.has_tail_model:
        raise NoTailModel(f"{spec.kind} specs have no analytic tail")
    return [make_simplex_point(replace(spec, dim=int(n))) for n in dims]


# ---------------------------------------------------------------------------
# stable softmax kernel (shared by e-geodesics and gradient flows)
# ---------------------------------------------------------------------------


def softmax_coords(log_weights: np.ndarray) -> np.ndarray:
    """Simplex coordinates proportional to exp(log_weights), stably.

    Uses log-sum-exp centering and flushes underflowed coordinates to the
    smallest positive normal, so the result stays in the open simplex; if
    its one sum misses 1.0, :func:`_fix_up` lands it on 1.0 from that residue.
    """
    s = np.asarray(log_weights, dtype=float)
    _require_finite(s, "log-weight vector")
    # A span beyond the float range centres to -inf, whose exp is 0 and is flushed below.
    with np.errstate(over="ignore"):
        w = np.exp(s - np.maximum.reduce(s, axis=None))
    x = w / np.add.reduce(w, axis=None)
    x = np.maximum(x, TINY)
    d = 1.0 - float(np.add.reduce(x, axis=None))
    if d != 0.0:
        _fix_up(x, d)
    return x


def _fix_up(x: np.ndarray, d: float) -> None:
    """Absorb the nonzero residue d = 1 - sum(x) of a flushed row, in place.

    The one fix-up rule of every softmax row.  In at most six rounds, the
    residue goes to a coordinate chosen by trial, smallest in x as given
    first: a bump that lands the sum on exactly 1.0 ends the fix-up, one
    that shrinks the residue ends the round and carries its residue into
    the next, and any other is reverted.  A round with no such bump ends it.
    """
    order = np.argsort(x)
    for _ in range(6):
        for j in order:
            old = x[j]
            bumped = old + d
            if bumped > 0.0 and bumped != old:
                x[j] = bumped
                residue = 1.0 - float(np.add.reduce(x, axis=None))
                if residue == 0.0:
                    return
                if abs(residue) < abs(d):
                    d = residue
                    break
                x[j] = old
        else:
            return


def softmax_curve(p0: SimplexPoint, a: np.ndarray, t: float) -> SimplexPoint:
    """Point softmax(log p0 + a t), for any finite t, of an e-geodesic or flow."""
    if not math.isfinite(t):
        raise NonFiniteInput(f"time {t} is not finite")
    # An overflowing a t is reported by softmax_coords's typed error alone.
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.log(p0.coords) + a * t
    return SimplexPoint(softmax_coords(s))


def softmax_rows(p0: SimplexPoint, a: np.ndarray, times) -> np.ndarray:
    """The ``(T, N)`` rows of softmax(log p0 + a t), each bitwise ``softmax_curve(p0, a, t).coords``.

    The one block form of :func:`softmax_coords`.  Times go in blocks of
    at most ``_SOFTMAX_BLOCK`` coordinates (whole rows, at least one); each
    block is centred, exponentiated, divided and flushed to ``TINY`` at
    once, in place in its rows of the result, and each row summed once.
    A row whose sum misses 1.0 gets :func:`_fix_up` in place from that
    residue, as in :func:`softmax_coords`.  Each row then passes
    :class:`SimplexPoint`'s rule, as the scalar path's rows do: its
    coordinates are at least ``TINY``, and its sum starts a few ulps per
    coordinate from 1 and only moves closer.  A block with a non-finite
    log-weight is redone by :func:`softmax_curve` in time order, which
    raises the error of its first bad row.
    """
    times = np.asarray(times, dtype=float)
    log_p0 = np.log(p0.coords)
    rows = np.empty((times.size, p0.dim))
    step = max(1, _SOFTMAX_BLOCK // p0.dim)
    for lo in range(0, times.size, step):
        chunk = times[lo : lo + step]
        x = rows[lo : lo + chunk.size]
        # In place: a block-sized temporary kept alive into the next block costs a fresh allocation.
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(a, chunk[:, None], out=x)
            x += log_p0
            if np.isfinite(x).all():
                x -= x.max(axis=1, keepdims=True)  # centred as in softmax_coords
                np.exp(x, out=x)
                x /= x.sum(axis=1, keepdims=True)
                np.maximum(x, TINY, out=x)
                for i, total in enumerate(x.sum(axis=1).tolist()):
                    if total != 1.0:
                        _fix_up(x[i], 1.0 - total)
            else:
                x[:] = [softmax_curve(p0, a, t).coords for t in chunk]
    return rows


# ---------------------------------------------------------------------------
# seeded generators used by checks and tests
# ---------------------------------------------------------------------------


def random_simplex_point(rng: Draws, dim: int) -> SimplexPoint:
    """Random interior point; coordinates are kept above 0.01 / dim.

    ``rng`` is a numpy Generator or a ``Draws``: only its ``gamma`` is called.
    """
    for _ in range(1000):
        g = rng.gamma(2.0, size=dim)
        p = g / g.sum()
        if p.min() > 0.01 / dim:
            return SimplexPoint(softmax_coords(np.log(p)))
    raise NotNormalizable(f"1000 draws at dim {dim} all had a coordinate at or below 0.01 / dim")


def random_tangent(
    rng: Draws, base: SimplexPoint, max_ratio: float | None = None
) -> TangentVector:
    """Random zero-sum vector at ``base``; optionally cap max |v_n / p_n|.

    ``rng`` is a numpy Generator or a ``Draws``: only its ``standard_normal`` is called.
    """
    v = make_tangent(base, rng.standard_normal(base.dim))
    if max_ratio is not None:
        r = float(np.max(np.abs(v.comps) / base.coords))
        if r > max_ratio:
            v = make_tangent(base, v.comps * (max_ratio / r))
    return v
