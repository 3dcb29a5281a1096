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
from simplexgeo.hamiltonian import (
    ComplexPoint,
    QuadraticHamiltonian,
    coordinate_hamiltonian,
    coordinate_jets,
    hamiltonian_flow,
    integrability_suite,
)
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
PLUS = ComplexPoint(np.full(2, math.sqrt(0.5)))


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
        (lambda: integrability_suite([1.0, 2.0], 2.5, 0), InvalidParameter,
         "trials must be an integer, got 2.5"),
        (lambda: integrability_suite([1.0, 2.0], True, 0), InvalidParameter,
         "trials must be an integer, got True"),
        (lambda: coordinate_hamiltonian([1.0, 2.0], 1.0), InvalidParameter,
         "mode index must be an integer, got 1.0"),
        (lambda: coordinate_hamiltonian([1.0, 2.0], True), InvalidParameter,
         "mode index must be an integer, got True"),
        (lambda: coordinate_jets(PLUS, 1.5), InvalidParameter,
         "coordinate index must be an integer, got 1.5"),
        (lambda: coordinate_jets(PLUS, True), InvalidParameter,
         "coordinate index must be an integer, got True"),
    ],
    ids=["objective-one-coefficient", "gradient-field-dim", "closed-form-dim", "lp-tol-nan",
         "complex-point-empty", "complex-point-2d", "hamiltonian-flow-inf", "explicit-no-coords",
         "simplex-draw-limit", "sphere-point-2d", "sphere-tangent-2d", "suite-negative-seed",
         "suite-float-seed", "checks-negative-seed", "suite-float-trials", "suite-bool-trials",
         "mode-float-index", "mode-bool-index", "jets-float-index", "jets-bool-index"],
)
def test_raises_its_typed_error(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message



def test_numpy_integers_pass_as_integers():
    assert coordinate_hamiltonian([1.0, 2.0], np.int64(1)).weights.tolist() == [0.0, 2.0]
    (re_dz, _), _ = coordinate_jets(PLUS, np.uint8(1))
    assert re_dz.tolist() == [0.0, 0.5]
    assert integrability_suite([2.0, 1.0], np.int32(1), 0) == integrability_suite([2.0, 1.0], 1, 0)
