"""The block geodesic kernel and the length oracle against their per-point references.

The references below are the per-t geodesic formula and the per-node
midpoint loop that ``fr_geodesic_block`` and ``checks._geodesic_length``
replace.  Same arithmetic, so the tests ask for bitwise equality.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simplexgeo.checks import _LENGTH_NODES, _LENGTH_STEP, _geodesic_length
from simplexgeo.errors import DegenerateEndpoints, NonFiniteInput
from simplexgeo.metrics import fr_distance, fr_geodesic, fr_geodesic_block
from simplexgeo.sequence_core import SimplexPoint, random_simplex_point

GRIDS = ("ends", "mid", "plus", "minus")


def reference_geodesic(p, r, t):
    """Coordinates of the geodesic point at one t, as the per-t kernel computed them."""
    theta = fr_distance(p, r)
    a = np.sqrt(p.coords)
    b = np.sqrt(r.coords)
    arc = (np.sin((1.0 - t) * theta) * a + np.sin(t * theta) * b) / np.sin(theta)
    coords = arc**2
    return coords / coords.sum()


def reference_length(p, r):
    """The per-node midpoint loop: make_tangent's projection and fr_inner's pairing per node."""
    n, h = _LENGTH_NODES, _LENGTH_STEP
    tol = 1e-12 * p.dim
    total = 0.0
    for t in (np.arange(n) + 0.5) / n:
        mid = reference_geodesic(p, r, t)
        vel = (reference_geodesic(p, r, t + h) - reference_geodesic(p, r, t - h)) / (2.0 * h)
        comps = vel
        if abs(float(vel.sum())) > tol:
            comps = vel - vel.sum() / vel.size
            for _ in range(4):
                if abs(float(comps.sum())) <= tol:
                    break
                comps = comps - comps.sum() / comps.size
        total += np.sqrt(0.25 * float(np.sum(comps * comps / mid))) / n
    return float(total)


def grid(kind):
    mids = (np.arange(_LENGTH_NODES) + 0.5) / _LENGTH_NODES
    return {
        "ends": np.array([0.0, 1.0]),
        "mid": mids,
        "plus": mids + _LENGTH_STEP,
        "minus": mids - _LENGTH_STEP,
    }[kind]


def endpoints(dim, seed):
    rng = np.random.default_rng(seed)
    return random_simplex_point(rng, dim), random_simplex_point(rng, dim)


@settings(max_examples=20)
@given(
    dim=st.integers(2, 1024),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(GRIDS),
)
@example(dim=2, seed=0, kind="mid").via("smallest dimension")
@example(dim=1024, seed=1, kind="plus").via("largest dimension")
def test_block_rows_bitwise_equal_per_t_formula(dim, seed, kind):
    p, r = endpoints(dim, seed)
    ts = grid(kind)
    block = fr_geodesic_block(p, r, ts)
    assert block.shape == (ts.size, dim)
    for t, row in zip(ts, block):
        assert np.array_equal(row, reference_geodesic(p, r, t))
    for t in ts[:: max(1, ts.size // 7)]:
        assert np.array_equal(fr_geodesic(p, r, float(t)).coords, reference_geodesic(p, r, float(t)))


@settings(max_examples=8)
@given(dim=st.integers(2, 1024), seed=st.integers(0, 2**32 - 1))
@example(dim=2, seed=0).via("smallest dimension")
@example(dim=1024, seed=1).via("largest dimension")
def test_length_oracle_bitwise_equal_per_node_loop(dim, seed):
    p, r = endpoints(dim, seed)
    assert _geodesic_length(p, r) == reference_length(p, r)


def test_coinciding_endpoints_raise(half_half):
    same = SimplexPoint(np.array(half_half.coords))
    with pytest.raises(DegenerateEndpoints):
        fr_geodesic_block(half_half, same, grid("mid"))
    with pytest.raises(DegenerateEndpoints):
        fr_geodesic(half_half, same, 0.5)
    with pytest.raises(DegenerateEndpoints):
        _geodesic_length(half_half, same)


def test_bad_row_raises_the_error_of_its_point(half_half):
    r = SimplexPoint(np.array([0.9, 0.1]))
    with pytest.raises(NonFiniteInput, match="coordinate vector contains NaN or infinity"):
        fr_geodesic_block(half_half, r, np.array([0.5, np.nan]))
    with pytest.raises(NonFiniteInput, match="coordinate vector contains NaN or infinity"):
        fr_geodesic(half_half, r, np.nan)
