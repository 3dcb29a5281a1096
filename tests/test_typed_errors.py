"""Typed-error branches of the library that no other test reaches: each raises its
own error type with its own message."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from simplexgeo.errors import (
    DimensionMismatch,
    DimensionTooSmall,
    InvalidParameter,
    NonFiniteInput,
    NotNormalizable,
)
from simplexgeo.checks import check_transforms
from simplexgeo.flows import LinearObjective, flow_closed_form, gradient_field, solve_lp
from simplexgeo.hamiltonian import ComplexPoint, QuadraticHamiltonian, hamiltonian_flow, integrability_suite
from simplexgeo.sequence_core import (
    SequenceSpec,
    SimplexPoint,
    SpherePoint,
    SphereTangent,
    random_simplex_point,
)

PAIR = LinearObjective(np.array([1.0, 0.0]))
THIRDS = SimplexPoint(np.full(3, 1.0 / 3.0))
HALVES = SpherePoint(np.full(4, 0.5), q=2.0, mass_deficit=0.0)


def _one_small_coordinate(shape, size):
    """A Gamma draw whose first coordinate is below 0.01 / size of its sum."""
    g = np.full(size, shape)
    g[0] = 1e-3 * shape
    return g


# Every draw is rejected, so random_simplex_point reaches its draw limit in milliseconds.
REJECTING_RNG = SimpleNamespace(gamma=_one_small_coordinate)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: LinearObjective(np.array([1.0])), DimensionMismatch,
         "objective needs a vector of at least 2 coefficients"),
        (lambda: gradient_field(PAIR, THIRDS.coords), DimensionMismatch,
         "objective dim 2, point dim 3"),
        (lambda: flow_closed_form(PAIR, THIRDS, 1.0), DimensionMismatch,
         "objective dim 2, point dim 3"),
        (lambda: solve_lp(PAIR, SimplexPoint(np.full(2, 0.5)), math.nan), InvalidParameter,
         "tol must be positive, got nan"),
        (lambda: ComplexPoint(np.array([])), DimensionMismatch,
         "coords must be a nonempty one-dimensional vector"),
        (lambda: ComplexPoint(np.array([[1.0, 0.0]])), DimensionMismatch,
         "coords must be a nonempty one-dimensional vector"),
        (lambda: hamiltonian_flow(QuadraticHamiltonian(np.array([1.0, 2.0])),
                                  ComplexPoint(np.array([1.0, 0.0])), math.inf),
         NonFiniteInput, "time inf is not finite"),
        (lambda: SequenceSpec("explicit", 3), NotNormalizable, "explicit spec needs coords"),
        (lambda: random_simplex_point(REJECTING_RNG, 60_000), NotNormalizable,
         "1000 draws at dim 60000 all had a coordinate at or below 0.01 / dim"),
        (lambda: SpherePoint(np.full((1, 4), 0.5), q=2.0, mass_deficit=0.0), DimensionTooSmall,
         "coords must be a one-dimensional vector"),
        (lambda: SphereTangent(HALVES, [[0.1, -0.1, 0.2, -0.2]]), DimensionTooSmall,
         "components must be a one-dimensional vector"),
        (lambda: integrability_suite([1.0, 2.0], 1, -1), InvalidParameter,
         "seed must be a non-negative integer, got -1"),
        (lambda: integrability_suite([1.0, 2.0], 1, 1.5), InvalidParameter,
         "seed must be a non-negative integer, got 1.5"),
        (lambda: check_transforms(4, -3), InvalidParameter,
         "seed must be a non-negative integer, got -3"),
    ],
    ids=["objective-one-coefficient", "gradient-field-dim", "closed-form-dim", "lp-tol-nan",
         "complex-point-empty", "complex-point-2d", "hamiltonian-flow-inf", "explicit-no-coords",
         "simplex-draw-limit", "sphere-point-2d", "sphere-tangent-2d", "suite-negative-seed",
         "suite-float-seed", "checks-negative-seed"],
)
def test_raises_its_typed_error(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message

