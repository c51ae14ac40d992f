import numpy as np
import pytest

from chaowork import native
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


@pytest.fixture(scope="session")
def baseline(tmp_path_factory):
    """The engine source with its AVX2 path compiled out: the lane loop built
    for the baseline target, with the scalar erf, exp and sincos."""
    source = native._source().decode()
    lines = source.splitlines(keepends=True)
    gate = [i for i, line in enumerate(lines) if line.startswith("#if defined(__x86_64__)")]
    assert len(gate) == 1
    lines[gate[0]] = "#if 0\n"
    target = str(tmp_path_factory.mktemp("baseline") / "_engine.baseline.so")
    native.build(native.find_compiler(), "".join(lines).encode(), target)
    lib = native.open_library(target)
    assert lib.math_lanes() == 1
    return lib
