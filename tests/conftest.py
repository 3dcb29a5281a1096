import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from simplexgeo.sequence_core import SimplexPoint

settings.register_profile(
    "ci", max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def half_half():
    return SimplexPoint(np.array([0.5, 0.5]))

