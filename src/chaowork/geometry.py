"""Desymmetrized stadium billiard: containment and batched ray tracing.

Placement convention: the quarter stadium is the rectangle [0, l] x [0, r]
joined to the quarter disk of radius r centered at (l, 0), so the bounding
box is [0, l + r] x [0, r].  Walls: bottom (y = 0, 0 <= x <= l + r), left
(x = 0, 0 <= y <= r), top (y = r, 0 <= x <= l) and the arc
((x - l)^2 + y^2 = r^2, x >= l, y >= 0).  All operations are pure functions
of immutable data and safe to share across workers.

The ray/wall intersection is traced by the compiled engine (``_engine.c``).
Its numpy statement, ``first_hit_arrays``, is the test oracle in
``tests/reference.py``, with the numpy engine and the scalar one-ray
``first_hit``/``reflect`` built on it: the compiled engine repeats its
arithmetic operation for operation on four rays at a time, one per vector
lane, with masks where it selects, so the two agree bit for bit.  The
tolerances below are passed to the compiled engine and read by that
oracle, so each is defined here only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Wall-coincidence tolerance and minimum accepted flight length (length units).
TOL_GEOM = 1e-10
# |d . n| below this counts as a grazing impact.
TOL_GRAZING = 1e-12
# Post-reflection push along the inward normal, to avoid re-detecting the wall.
WALL_NUDGE = 1e-12


@dataclass(frozen=True)
class BilliardGeometry:
    """Quarter stadium with circle radius ``r`` and straight length ``l``."""

    r: float = 1.0
    l: float = 1.0

    def __post_init__(self):
        if not self.r > 0.0:
            raise ValueError(f"circle radius must be positive, got r={self.r}")
        if not self.l >= 0.0:
            raise ValueError(f"straight length must be nonnegative, got l={self.l}")

    @property
    def bounding_box(self) -> tuple[float, float]:
        """Width and height of the axis-aligned bounding box [0,w] x [0,h]."""
        return self.l + self.r, self.r


def contains_many(geom: BilliardGeometry, qs: np.ndarray) -> np.ndarray:
    """Vectorized closed-region membership for an (n, 2) array of points."""
    return contains_xy(geom, qs[..., 0], qs[..., 1])


def contains_xy(geom: BilliardGeometry, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Closed-region membership of the points (x, y), given as two arrays."""
    inside_band = (x >= 0.0) & (y >= 0.0) & (y <= geom.r)
    dx = x - geom.l
    in_cap = dx * dx + y * y <= geom.r * geom.r
    return inside_band & ((x <= geom.l) | in_cap)
