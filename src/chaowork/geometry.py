"""Desymmetrized stadium billiard: containment and batched ray tracing.

Placement convention: the quarter stadium is the rectangle [0, l] x [0, r]
joined to the quarter disk of radius r centered at (l, 0), so the bounding
box is [0, l + r] x [0, r].  Walls: bottom (y = 0, 0 <= x <= l + r), left
(x = 0, 0 <= y <= r), top (y = r, 0 <= x <= l) and the arc
((x - l)^2 + y^2 = r^2, x >= l, y >= 0).  All operations are pure functions
of immutable data and safe to share across workers.

``first_hit_arrays`` is the numpy statement of the ray/wall intersection.
The compiled engine (``_engine.c``) repeats its arithmetic operation for
operation on four rays at a time, one per vector lane, with masks where
this code selects and glibc's scalar ``sqrt`` per lane, so the two agree bit
for bit; the numpy engine and the scalar one-ray ``first_hit``/``reflect``
built on it are the test references in ``tests/reference.py``.  The tolerances below are passed
to the compiled engine, so each is defined here only.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

# Wall-coincidence tolerance and minimum accepted flight length (length units).
TOL_GEOM = 1e-10
# |d . n| below this counts as a grazing impact.
TOL_GRAZING = 1e-12
# Post-reflection push along the inward normal, to avoid re-detecting the wall.
WALL_NUDGE = 1e-12


class Wall(IntEnum):
    BOTTOM = 0
    LEFT = 1
    TOP = 2
    ARC = 3


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
    x = qs[..., 0]
    y = qs[..., 1]
    inside_band = (x >= 0.0) & (y >= 0.0) & (y <= geom.r)
    dx = x - geom.l
    in_cap = dx * dx + y * y <= geom.r * geom.r
    return inside_band & ((x <= geom.l) | in_cap)


# Inward normals of the flat walls, by Wall index.
_FLAT_NORMALS = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, -1.0]])


def first_hit_arrays(
    geom: BilliardGeometry, origins: np.ndarray, directions: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Nearest boundary intersection for a batch of rays.

    Parameters are (n, 2) arrays of interior origins and unit directions.
    Returns ``(t, normals, wall, ok, corner)`` where ``t`` is path length
    (inf when no wall is found), ``normals`` are inward unit normals
    (angle-bisector at corner ties), ``wall`` is the Wall index of the
    nearest wall and ``corner`` flags near-simultaneous two-wall hits.
    """
    origins = np.atleast_2d(origins)
    directions = np.atleast_2d(directions)
    n = origins.shape[0]
    x = origins[:, 0]
    y = origins[:, 1]
    dx = directions[:, 0]
    dy = directions[:, 1]
    r, length = geom.r, geom.l
    inf = np.inf
    tol = TOL_GEOM

    times = np.full((4, n), inf)

    # Flat walls: bottom y=0, left x=0, top y=r. Span checks use a small
    # tolerance so corner grazes are not dropped.
    with np.errstate(divide="ignore", invalid="ignore"):
        tb = np.where(dy < 0.0, -y / dy, inf)
        xb = x + dx * tb
        good = (tb > tol) & (xb >= -tol) & (xb <= length + r + tol)
        times[Wall.BOTTOM] = np.where(good, tb, inf)

        tl = np.where(dx < 0.0, -x / dx, inf)
        yl = y + dy * tl
        good = (tl > tol) & (yl >= -tol) & (yl <= r + tol)
        times[Wall.LEFT] = np.where(good, tl, inf)

        tt = np.where(dy > 0.0, (r - y) / dy, inf)
        xt = x + dx * tt
        good = (tt > tol) & (xt >= -tol) & (xt <= length + tol)
        times[Wall.TOP] = np.where(good, tt, inf)

    # Arc: |q + t d - (l, 0)| = r with |d| = 1. Both roots are candidates;
    # a crossing with x < l is interior to the rectangle part, not boundary.
    cx = x - length
    b = cx * dx + y * dy
    c = cx * cx + y * y - r * r
    disc = b * b - c
    has = disc >= 0.0
    sq = np.sqrt(np.where(has, disc, 0.0))
    ta = np.full(n, inf)
    for root in (-b - sq, -b + sq):
        hx = x + dx * root
        hy = y + dy * root
        good = has & (root > tol) & (hx >= length - tol) & (hy >= -tol)
        ta = np.where(good & (root < ta), root, ta)
    times[Wall.ARC] = ta

    t_min = times.min(axis=0)
    ok = np.isfinite(t_min)
    wall = times.argmin(axis=0)

    near = times <= t_min + tol
    corner = near.sum(axis=0) >= 2

    # Inward normal: sum of near-wall normals, normalized (bisector at ties).
    normals = np.zeros((n, 2))
    for w in (Wall.BOTTOM, Wall.LEFT, Wall.TOP):
        m = near[w] & ok
        normals[m] += _FLAT_NORMALS[w]
    m = near[Wall.ARC] & ok
    if m.any():
        hx = x[m] + dx[m] * times[Wall.ARC][m]
        hy = y[m] + dy[m] * times[Wall.ARC][m]
        normals[m, 0] += (length - hx) / r
        normals[m, 1] += -hy / r
    norm = np.sqrt((normals * normals).sum(axis=1))
    safe = np.where(norm > 0.0, norm, 1.0)
    normals /= safe[:, None]

    return t_min, normals, wall, ok, corner
