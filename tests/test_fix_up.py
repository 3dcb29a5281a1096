"""The softmax fix-up against the per-round re-sum rule it replaces.

``_fix_up`` starts from the residue its caller's one sum left and carries
each round's residue into the next.  ``frozen_fix_up`` below is the rule
it replaced, which summed the row again at the start of every round and
tracked a ``moved`` flag; rows that ``softmax_coords`` and ``softmax_rows``
finish must be bitwise the rows that rule finishes.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simplexgeo.sequence_core import TINY, SimplexPoint, _fix_up, softmax_coords, softmax_rows

KINDS = ("gamma", "tied", "geometric", "wide")
DIMS = (2, 3, 8, 64, 256, 1024)
# Its first round's best bump shrinks the residue without landing on 1.0.
TWO_ROUNDS = math.log(2.0) * np.array([-1.0, 1.0, 4.0, 2.0, -2.0])


def frozen_fix_up(x):
    """The fix-up as it was, in place; it returns how many rounds began off 1.0 (the one addition)."""
    order = None
    for rounds in range(6):
        d = 1.0 - float(np.add.reduce(x, axis=None))
        if d == 0.0:
            return rounds
        if order is None:  # the order of x before any bump, sorted only when the sum misses 1.0
            order = np.argsort(x)
        moved = False
        for j in order:
            old = x[j]
            bumped = old + d
            if bumped > 0.0 and bumped != old:
                x[j] = bumped
                residue = 1.0 - float(np.add.reduce(x, axis=None))
                if residue == 0.0:
                    return rounds + 1
                if abs(residue) < abs(d):
                    moved = True
                    break
                x[j] = old
        if not moved:
            return rounds + 1
    return 6


def pre_fix(log_weights):
    """``softmax_coords``'s centred, divided and flushed row, before any fix-up."""
    s = np.asarray(log_weights, dtype=float)
    with np.errstate(over="ignore"):
        w = np.exp(s - np.maximum.reduce(s, axis=None))
    return np.maximum(w / np.add.reduce(w, axis=None), TINY)


def frozen_softmax(log_weights):
    x = pre_fix(log_weights)
    frozen_fix_up(x)
    return x


def draw_log_weights(kind, dim, rng):
    """Gamma, tied small-integer, geometric (flushed at TINY for small ratios) or wide log-weights."""
    if kind == "gamma":
        return np.log(rng.gamma(2.0, size=dim))
    if kind == "tied":
        return rng.integers(-4, 5, size=dim).astype(float)
    if kind == "geometric":
        return np.arange(dim) * math.log(rng.uniform(0.01, 0.99))
    return rng.uniform(-700.0, 0.0, dim)


@st.composite
def log_weight_rows(draw):
    kind = draw(st.sampled_from(KINDS))
    dim = draw(st.sampled_from(DIMS))
    return draw_log_weights(kind, dim, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))


def test_the_example_takes_two_rounds():
    assert frozen_fix_up(pre_fix(TWO_ROUNDS)) == 2


@settings(max_examples=200)
@given(log_weights=log_weight_rows())
@example(log_weights=TWO_ROUNDS)
def test_softmax_coords_matches_the_frozen_fix_up(log_weights):
    assert np.array_equal(softmax_coords(log_weights), frozen_softmax(log_weights))


@settings(max_examples=60)
@given(
    kind=st.sampled_from(KINDS),
    dim=st.sampled_from(DIMS),
    seed=st.integers(0, 2**32 - 1),
    uniform_start=st.booleans(),
    rows=st.integers(1, 12),
)
def test_softmax_rows_match_the_frozen_fix_up(kind, dim, seed, uniform_start, rows):
    rng = np.random.default_rng(seed)
    start = np.zeros(dim) if uniform_start else draw_log_weights(kind, dim, rng)
    p0 = SimplexPoint(frozen_softmax(start))
    a = draw_log_weights(kind, dim, rng)
    times = np.linspace(0.0, 2.0, rows)
    want = np.array([frozen_softmax(np.log(p0.coords) + a * t) for t in times])
    assert np.array_equal(softmax_rows(p0, a, times), want)


def test_a_row_no_bump_moves_is_left_as_it_is():
    # Adding 1e-20 rounds back to either coordinate, so the first round finds no
    # bump to keep and the fix-up ends by its no-progress exit.
    x = np.array([0.5, 0.5 - 2.0**-54])
    before = x.copy()
    _fix_up(x, 1e-20)
    assert x.tobytes() == before.tobytes()
