"""Typed-error branches of the library that no other test reaches: each raises its
own error type with its own message."""

import math

import numpy as np
import pytest

from simplexgeo.errors import DimensionMismatch, NonFiniteInput, NotNormalizable
from simplexgeo.flows import LinearObjective, flow_closed_form, gradient_field
from simplexgeo.hamiltonian import ComplexPoint, QuadraticHamiltonian, hamiltonian_flow
from simplexgeo.sequence_core import SequenceSpec, SimplexPoint

PAIR = LinearObjective(np.array([1.0, 0.0]))
THIRDS = SimplexPoint(np.full(3, 1.0 / 3.0))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: LinearObjective(np.array([1.0])), DimensionMismatch,
         "objective needs a vector of at least 2 coefficients"),
        (lambda: gradient_field(PAIR, THIRDS.coords), DimensionMismatch,
         "objective dim 2, point dim 3"),
        (lambda: flow_closed_form(PAIR, THIRDS, 1.0), DimensionMismatch,
         "objective dim 2, point dim 3"),
        (lambda: ComplexPoint(np.array([])), DimensionMismatch,
         "coords must be a nonempty one-dimensional vector"),
        (lambda: ComplexPoint(np.array([[1.0, 0.0]])), DimensionMismatch,
         "coords must be a nonempty one-dimensional vector"),
        (lambda: hamiltonian_flow(QuadraticHamiltonian(np.array([1.0, 2.0])),
                                  ComplexPoint(np.array([1.0, 0.0])), math.inf),
         NonFiniteInput, "time inf is not finite"),
        (lambda: SequenceSpec("explicit", 3), NotNormalizable, "explicit spec needs coords"),
    ],
    ids=["objective-one-coefficient", "gradient-field-dim", "closed-form-dim",
         "complex-point-empty", "complex-point-2d", "hamiltonian-flow-inf", "explicit-no-coords"],
)
def test_raises_its_typed_error(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message
