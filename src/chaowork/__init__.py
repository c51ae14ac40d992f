"""Work statistics of a sudden quench in a chaotic billiard.

Three routes to the same distribution: a semiclassical Monte Carlo estimator
of the characteristic function, direct classical phase-space sampling, and an
exact quantum two-point-measurement oracle on a finite-difference grid.
"""

__version__ = "0.1.0"

from .geometry import BilliardGeometry
from .potential import QuenchPotential, default_potential
from .sampler import ThermalEnsemble, sample_ensemble
from .characteristic import (
    CharacteristicGrid,
    Request,
    plan_u_grid,
    semiclassical_characteristic,
)
from .spectra import WorkHistogram, invert

__all__ = [
    "BilliardGeometry",
    "QuenchPotential",
    "default_potential",
    "ThermalEnsemble",
    "sample_ensemble",
    "CharacteristicGrid",
    "Request",
    "plan_u_grid",
    "semiclassical_characteristic",
    "WorkHistogram",
    "invert",
    "__version__",
]
