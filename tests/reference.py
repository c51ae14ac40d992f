"""Scalar one-trajectory reference path, used only as a test oracle.

The program has one engine: ``trajectory.checkpoint_action_integrals``, which
traces a whole batch of rays with ``geometry.first_hit_arrays`` and integrates
V with ``potential.segment_constants``.  This module re-derives the same
quantities one ray and one segment at a time, in plain Python, so tests can
check the engine against an independent, readable path:

- ``first_hit``/``reflect``: one ray against the walls, one specular bounce;
- ``propagate``/``action_difference``: one phase point through its bounces;
- ``segment_integral``: one flight segment in closed form, and
  ``_segment_simpson``, the composite quadrature it is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from chaowork import geometry, potential
from chaowork.geometry import TOL_GEOM, WALL_NUDGE, BilliardGeometry, Wall
from chaowork.potential import QuenchPotential
from chaowork.sampler import ThermalEnsemble
from chaowork.trajectory import MAX_BOUNCES_DEFAULT


class NoHit(Exception):
    """No forward boundary intersection: origin outside or degenerate ray."""


class BounceLimitExceeded(RuntimeError):
    """More reflections than max_bounces: near-zero momentum or broken geometry."""


@dataclass(frozen=True)
class PhasePoint:
    q: np.ndarray
    p: np.ndarray


def phase_point(ens: ThermalEnsemble, i: int) -> PhasePoint:
    """Copy of the i-th phase point of an ensemble."""
    return PhasePoint(q=ens.qs[i].copy(), p=ens.ps[i].copy())


@dataclass(frozen=True)
class BoundaryHit:
    point: np.ndarray
    path_length: float
    inward_normal: np.ndarray
    wall_id: Wall
    corner: bool = False


@dataclass(frozen=True)
class FlightSegment:
    start: np.ndarray
    direction: np.ndarray
    speed: float
    duration: float


def contains_with_tol(geom: BilliardGeometry, q, tol: float = TOL_GEOM) -> bool:
    """Membership in the region dilated by ``tol`` (for invariant checks)."""
    x, y = float(q[0]), float(q[1])
    if x < -tol or y < -tol or y > geom.r + tol:
        return False
    if x <= geom.l + tol:
        return True
    dx = x - geom.l
    return math.hypot(dx, y) <= geom.r + tol


def first_hit(geom: BilliardGeometry, origin, direction) -> BoundaryHit:
    """Nearest boundary intersection of a single interior ray.

    Raises NoHit when no forward intersection exists.  Corners take the
    angle-bisector normal, as in the batched ``first_hit_arrays``.
    """
    origin = np.asarray(origin, dtype=float)
    direction = np.asarray(direction, dtype=float)
    if not contains_with_tol(geom, origin):
        raise NoHit(f"ray origin {origin} lies outside the billiard")
    if abs(math.hypot(direction[0], direction[1]) - 1.0) > 1e-12:
        raise ValueError("direction must be a unit vector")
    t, normals, wall, ok, corner = geometry.first_hit_arrays(
        geom, origin[None, :], direction[None, :]
    )
    if not ok[0]:
        raise NoHit(f"no boundary intersection from {origin} along {direction}")
    return BoundaryHit(
        point=origin + t[0] * direction,
        path_length=float(t[0]),
        inward_normal=normals[0],
        wall_id=Wall(int(wall[0])),
        corner=bool(corner[0]),
    )


def reflect(direction, inward_normal) -> np.ndarray:
    """Specular reflection d - 2 (d.n) n of an incoming unit direction."""
    d = np.asarray(direction, dtype=float)
    n = np.asarray(inward_normal, dtype=float)
    dn = float(d @ n)
    if dn >= 0.0:
        raise ValueError(f"direction must point into the wall (d.n={dn})")
    return d - 2.0 * dn * n


def propagate(
    x0: PhasePoint,
    t: float,
    geom: BilliardGeometry,
    max_bounces: int = MAX_BOUNCES_DEFAULT,
) -> tuple[PhasePoint, list[FlightSegment]]:
    """Evolve a phase point for time t; returns the endpoint and its segments.

    Velocity is 2p; straight flight between boundary hits with specular
    reflection of p at each one.  Total segment duration equals t.
    """
    if t < 0.0:
        raise ValueError("propagation time must be nonnegative")
    q = np.asarray(x0.q, dtype=float).copy()
    p = np.asarray(x0.p, dtype=float).copy()
    if not contains_with_tol(geom, q):
        raise NoHit(f"initial position {q} outside the billiard")
    pmag = float(np.hypot(p[0], p[1]))
    speed = 2.0 * pmag
    if speed == 0.0:
        seg = FlightSegment(start=q.copy(), direction=np.array([1.0, 0.0]), speed=0.0, duration=t)
        return PhasePoint(q=q, p=p), [seg]
    d = p / pmag
    segments: list[FlightSegment] = []
    remaining = t
    bounces = 0
    while True:
        hit = first_hit(geom, q, d)
        t_wall = hit.path_length / speed
        if t_wall >= remaining:
            segments.append(
                FlightSegment(start=q.copy(), direction=d.copy(), speed=speed, duration=remaining)
            )
            q = q + d * (speed * remaining)
            break
        segments.append(
            FlightSegment(start=q.copy(), direction=d.copy(), speed=speed, duration=t_wall)
        )
        remaining -= t_wall
        d = reflect(d, hit.inward_normal)
        d = d / np.hypot(d[0], d[1])
        q = hit.point + WALL_NUDGE * hit.inward_normal
        bounces += 1
        if bounces > max_bounces:
            raise BounceLimitExceeded(f"exceeded {max_bounces} reflections")
    return PhasePoint(q=q, p=d * pmag), segments


def action_difference(
    x0: PhasePoint,
    t: float,
    geom: BilliardGeometry,
    pot: QuenchPotential,
    max_bounces: int = MAX_BOUNCES_DEFAULT,
) -> float:
    """Time integral of the energy jump along the unperturbed trajectory.

    Returns (xi_f - xi_0) * integral of V over the piecewise-straight path,
    each segment integrated in closed form.
    """
    _, segments = propagate(x0, t, geom, max_bounces)
    total = 0.0
    for seg in segments:
        total += segment_integral(pot, seg.start, seg.direction, seg.speed, seg.duration)
    return pot.delta_xi * total


def segment_integral(
    pot: QuenchPotential, q0, direction, speed: float, duration: float
) -> float:
    """Integral of V(q0 + direction * speed * tau) for tau in [0, duration].

    A one-row call of the closed form the engine uses.
    """
    if duration < 0.0:
        raise ValueError("duration must be nonnegative")
    cst = potential.segment_constants(pot, q0, direction, speed)
    return float(cst.integral(np.array([duration], dtype=float))[0])


def _segment_simpson(pot, q0, direction, speed, duration, step=None) -> float:
    """Composite Simpson along the path; step is measured in path length.

    The default step sigma/100 keeps the quadrature error comfortably below
    the 1e-8 relative agreement required against the closed form.
    """
    if duration == 0.0:
        return 0.0
    q0 = np.asarray(q0, dtype=float)
    direction = np.asarray(direction, dtype=float)
    if step is None:
        step = pot.sigma / 100.0
    path_len = speed * duration
    if path_len == 0.0:
        return float(potential.evaluate(pot, q0)) * duration
    n = max(2, int(math.ceil(path_len / step)))
    n += n % 2  # Simpson needs an even interval count
    tau = np.linspace(0.0, duration, n + 1)
    pts = q0[None, :] + direction[None, :] * (speed * tau)[:, None]
    vals = potential.evaluate(pot, pts)
    h = duration / n
    weights = np.ones(n + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(h / 3.0 * (weights @ vals))
