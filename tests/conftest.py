import numpy as np
import pytest

from chaowork.geometry import BilliardGeometry
from chaowork.potential import QuenchPotential


@pytest.fixture(scope="session")
def geom():
    return BilliardGeometry(r=1.0, l=1.0)


@pytest.fixture(scope="session")
def pot():
    return QuenchPotential()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
