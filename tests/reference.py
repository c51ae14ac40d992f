"""Reference paths, used only as test oracles.

The program has one engine: ``trajectory.checkpoint_action_integrals``, a
compiled loop over rays.  This module re-derives the same quantities in
numpy and plain Python, so tests can check the engine against independent,
readable paths:

- ``first_hit_arrays``: the numpy statement of the ray/wall intersection,
  with the ``Wall`` indices, which the compiled engine's geometry repeats
  bit for bit;
- ``checkpoint_action_integrals_numpy``: the batched numpy engine the
  compiled one replaced, with that geometry and its own closed form
  (``NumpySegments``), plus the per-ray counts the compiled engine reports;
- ``area`` and ``contains``: the billiard's closed-form area and one
  point's membership, the scalar statement of ``geometry.contains_many``;
- ``first_hit``/``reflect``: one ray against the walls, one specular bounce;
- ``propagate``/``action_difference``: one phase point through its bounces;
- ``segment_integral``: one flight segment in closed form, and
  ``_segment_simpson``, the composite quadrature it is checked against;
- ``evaluate_whole``: V on every point at once, the unblocked row-major
  formula ``potential.evaluate`` must match bit for bit;
- ``sample_positions_rowwise``: the rejection draw on (m, 2) rows, whose
  bits and stream ``sampler.sample_positions`` must keep;
- ``request_sums``: one request's phase sums over every good row of a
  chunk at once, which ``characteristic._request_sums``, taking them in
  one engine call, must match bit for bit, with the second moment of the phase vectors, from
  which ``covariance_stderr`` propagates the error of a linear functional
  of G through the full (2k x 2k) covariance.  It takes numpy's cos and
  sin, which have the bits of glibc's sincos, or with ``engine_cos_sin``
  the engine's own, libmvec's on its four-lane path;
- ``jarzynski_histogram_sum``: the free energy summed over ``invert``'s
  histogram of G, with the error of independent bins, which the estimate
  c . G must equal and whose error the functional's must not exceed;
- ``log_partition_ratio_per_integral``: the classical partition ratio with
  V evaluated anew for each of its two integrals, whose bits the form that
  evaluates V once per refinement level keeps;
- ``sample_shell``, ``shell_final_energy_sample`` and
  ``shell_characteristic``: the shell-resolved (microcanonical) estimator,
  a cross-check of the Boltzmann one, on its own sampler stream
  ``STREAM_SHELL``;
- ``density_of_states`` and ``potential_extrema``: the free billiard's
  shell measure and the range of V;
- ``histogram_to_characteristic`` (the forward transform ``invert`` is
  checked against) and ``rebin``;
- ``dense_invert`` and ``dense_functional_coefficients``: the inverse
  transform as dense (n x (2n - 1)) cos/sin matrices, the formula whose
  values the FFTs of ``invert`` and ``functional_coefficients`` must match;
- ``sparse_hamiltonians``: H(xi_0) and H(xi_f) as scipy CSR matrices,
  whose dense form, products with a block of vectors and |H| row sums the
  5-point ``quantum.Stencil`` must match bit for bit;
- ``bin_spikes_per_offset``: Monte Carlo samples binned with one exp per
  sample and bin offset, the statement ``spectra.bin_spikes``' gridded
  Gaussians must match within rounding;
- ``bin_weighted_spikes`` and ``quantum_spike_density``: the quantum work
  distribution binned straight from its weighted spikes, the direct route
  that ``invert`` of the exact quantum G is checked against;
- ``load_spectra``: a ``quantum.save_spectra`` container read back, so
  tests can check what a run wrote to ``spectra.bin``;
- ``weyl_level_spacing``, ``supported_states``, ``plan_step_for_states``
  and ``final_state_count``: area-law estimates that size the quantum
  solve of acceptance criterion 6.
"""

from __future__ import annotations

import ctypes
import json
import math
import struct
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from scipy import sparse
from scipy.special import erf

from chaowork import classical, geometry, native, potential, quantum, sampler, spectra
from chaowork.characteristic import (
    FAILURE_BUDGET,
    CharacteristicGrid,
    ExcessiveFailures,
    UGridPlan,
    _chunk_phase_sums,
)
from chaowork.geometry import TOL_GEOM, WALL_NUDGE, BilliardGeometry
from chaowork.potential import QuenchPotential
from chaowork.sampler import ThermalEnsemble
from chaowork.spectra import WorkHistogram
from chaowork.trajectory import MAX_BOUNCES_DEFAULT, TraceCounts


class NoHit(Exception):
    """No forward boundary intersection: origin outside or degenerate ray."""


class BounceLimitExceeded(RuntimeError):
    """More reflections than max_bounces: near-zero momentum or broken geometry."""


@dataclass(frozen=True)
class PhasePoint:
    q: np.ndarray
    p: np.ndarray


def phase_point(ens: ThermalEnsemble, beta: float, i: int) -> PhasePoint:
    """Copy of the i-th phase point of an ensemble at inverse temperature beta."""
    return PhasePoint(q=ens.qs[i].copy(), p=ens.momenta(beta)[i].copy())


class Wall(IntEnum):
    BOTTOM = 0
    LEFT = 1
    TOP = 2
    ARC = 3


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


def area(geom: BilliardGeometry) -> float:
    """Closed-form area l*r + pi*r^2/4."""
    return geom.l * geom.r + math.pi * geom.r * geom.r / 4.0


def contains(geom: BilliardGeometry, q) -> bool:
    """Membership in the closed quarter-stadium region (boundary inclusive).

    Boundary points are accepted so that rays may legitimately start on a
    wall (e.g. at the arc center after a bounce at (l, 0)).
    """
    x, y = float(q[0]), float(q[1])
    if x < 0.0 or y < 0.0 or y > geom.r:
        return False
    if x <= geom.l:
        return True
    dx = x - geom.l
    return dx * dx + y * y <= geom.r * geom.r


def contains_with_tol(geom: BilliardGeometry, q, tol: float = TOL_GEOM) -> bool:
    """Membership in the region dilated by ``tol`` (for invariant checks)."""
    x, y = float(q[0]), float(q[1])
    if x < -tol or y < -tol or y > geom.r + tol:
        return False
    if x <= geom.l + tol:
        return True
    dx = x - geom.l
    return math.hypot(dx, y) <= geom.r + tol


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
    t, normals, wall, ok, corner = first_hit_arrays(
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


def evaluate_whole(pot: QuenchPotential, q) -> np.ndarray:
    """V at every row of an (n, 2) array in one pass of full-size temporaries.

    The row-major statement ``potential._bump_sum`` had before it formed its
    temporaries along the rows: (rows, bumps) offsets and exponentials.
    """
    q = np.asarray(q, dtype=float)
    dx = q[..., None, 0] - pot.centers[:, 0]
    dy = q[..., None, 1] - pot.centers[:, 1]
    inv = 1.0 / (2.0 * pot.sigma * pot.sigma)
    arg = (dx * dx + dy * dy) * inv
    return np.exp(-arg) @ pot.signs


def numpy_cos_sin(phases):
    """numpy's cos and sin of an array of phases."""
    return np.cos(phases), np.sin(phases)


def engine_cos_sin(lib, phases):
    """The cos and sin a compiled engine ``lib``'s ``phase_sums`` takes of
    each phase of a 2-D array, read back one row at a time: the sums of one
    good row are its own cos and sin (a sin of -0.0 reads +0.0, as it adds
    into any sum that starts from +0.0)."""
    phases = np.ascontiguousarray(phases, dtype=float)
    rows, k = phases.shape
    columns = np.arange(k, dtype=np.int64)
    c, s = np.empty_like(phases), np.empty_like(phases)
    for r in range(rows):
        sums = np.zeros((4, k))
        ok = lib.phase_sums(
            1, k, native.pointer(phases[r]), k, native.pointer(columns, ctypes.c_int64), 1.0,
            None, native.pointer(sums), None,
        )
        assert ok == 1
        c[r], s[r] = sums[0], sums[1]
    return c, s


def request_sums(integrals, columns, coef, want_cov, cos_sin=numpy_cos_sin):
    """(sums, ok, failed, moment) of one request over every good row at once.

    ``moment`` is the (2k, 2k) second moment v.T @ v of the per-sample phase
    vectors v = [cos; sin] when ``want_cov``, else None.  ``cos_sin`` takes
    the cos and sin of the good rows' phases: numpy's, or the engine's own
    through ``engine_cos_sin``.
    """
    failed = np.isnan(integrals[:, columns[-1]])
    good = ~failed
    phases = integrals[np.ix_(good, columns)]
    phases *= coef
    c, s = cos_sin(phases)
    if want_cov:
        v = np.concatenate([c, s], axis=1)
        moment = v.T @ v
    else:
        moment = None
    sums = np.stack([c.sum(axis=0), s.sum(axis=0), (c * c).sum(axis=0), (s * s).sum(axis=0)])
    return sums, int(good.sum()), int(failed.sum()), moment


def covariance_stderr(sums, n: int, moment, functional) -> float:
    """Standard error of c . [Re G; Im G] through the full phase covariance.

    ``sums`` and ``moment`` are ``request_sums``'s over n good samples; the
    covariance of the mean [Re G; Im G] is formed from them and contracted
    with c on both sides, c^T Cov c.
    """
    mu = np.concatenate([sums[0], sums[1]]) / n
    cov = (moment / n - np.outer(mu, mu)) * (n / max(n - 1, 1)) / n
    return math.sqrt(max(float(functional @ cov @ functional), 0.0))


def jarzynski_histogram_sum(g: CharacteristicGrid, beta: float, broadening: float):
    """(estimate, stderr) of Delta F from the kernel sum over the inverted G.

    The histogram average of exp(-beta (W - w0)), w0 the lowest W, loses
    the Gaussian broadening's exp((beta eps)^2 / 2); the error treats the
    bins as independent, which overstates it.
    """
    hist = spectra.invert(g, broadening)
    w0 = g.plan.w_values.min()
    kernel = np.exp(-beta * (g.plan.w_values - w0)) * g.plan.dw
    bias = math.exp(0.5 * (beta * hist.broadening) ** 2)
    mean = float((kernel * hist.density).sum()) / bias
    se = math.sqrt(float(((kernel * hist.error) ** 2).sum())) / bias
    return w0 - math.log(mean) / beta, se / (beta * mean)


def log_partition_ratio_per_integral(
    geom: BilliardGeometry,
    pot: QuenchPotential,
    beta: float,
    rel_tol: float = 1e-8,
    max_nodes: int = 2048,
) -> float:
    """log Z(xi_f) / Z(xi_0) with V evaluated afresh for each of the two
    integrals at every refinement level, the form whose bits
    ``classical.log_partition_ratio`` keeps while evaluating V once."""

    def log_integral(exponent, n: int) -> float:
        r, length = geom.r, geom.l
        parts = []
        if length > 0.0:
            xs, wx = classical._gauss_nodes(0.0, length, n)
            ys, wy = classical._gauss_nodes(0.0, r, n)
            gx, gy = np.meshgrid(xs, ys, indexing="ij")
            pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
            parts.append((wx, exponent(pts).reshape(n, n), wy))
        rho, wr = classical._gauss_nodes(0.0, r, n)
        phi, wp = classical._gauss_nodes(0.0, 0.5 * math.pi, n)
        grho, gphi = np.meshgrid(rho, phi, indexing="ij")
        pts = np.stack(
            [length + grho.ravel() * np.cos(gphi.ravel()), grho.ravel() * np.sin(gphi.ravel())],
            axis=1,
        )
        parts.append((wr * rho, exponent(pts).reshape(n, n), wp))
        m = max(float(e.max()) for _, e, _ in parts)
        total = sum(float(wa @ np.exp(e - m) @ wb) for wa, e, wb in parts)
        return math.log(total) + m

    def log_ratio_at(n: int) -> float:
        num = log_integral(lambda q: -beta * pot.xi_f * potential.evaluate(pot, q), n)
        den = log_integral(lambda q: -beta * pot.xi_0 * potential.evaluate(pot, q), n)
        return num - den

    n = 32
    prev = log_ratio_at(n)
    while n < max_nodes:
        n *= 2
        cur = log_ratio_at(n)
        if abs(math.expm1(cur - prev)) <= rel_tol:
            return cur
        prev = cur
    raise classical.QuadratureNonConvergence(
        f"partition ratio did not converge to {rel_tol} by {max_nodes} nodes"
    )


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


# ---------------------------------------------------------------------------
# The batched numpy engine

_SQRT2 = math.sqrt(2.0)
_SQRT_HALF_PI = math.sqrt(math.pi / 2.0)


class NumpySegments:
    """Per-(segment, bump) closed-form pieces, in numpy, reused for partial integrals.

    A segment is q(tau) = q0 + d * s * tau for tau in [0, T].  For bump i,
    the integrand is exp(-|q(tau) - c_i|^2 / (2 sigma^2)) =
    amp_i * exp(-(s (tau - tau_star_i))^2 / (2 sigma^2)).
    """

    __slots__ = ("amp", "tau_star", "alpha", "pref", "erf_lo", "signs", "still")

    def __init__(self, pot: QuenchPotential, q0, direction, speed):
        q0 = np.atleast_2d(np.asarray(q0, dtype=float))
        direction = np.atleast_2d(np.asarray(direction, dtype=float))
        speed = np.atleast_1d(np.asarray(speed, dtype=float))
        sigma = pot.sigma
        d0x = q0[:, None, 0] - pot.centers[:, 0]
        d0y = q0[:, None, 1] - pot.centers[:, 1]
        proj = d0x * direction[:, None, 0] + d0y * direction[:, None, 1]
        d0sq = d0x * d0x + d0y * d0y
        b2 = np.maximum(d0sq - proj * proj, 0.0)
        self.still = speed <= 0.0
        s_safe = np.where(self.still, 1.0, speed)
        self.tau_star = -proj / s_safe[:, None]
        self.amp = np.exp(-b2 / (2.0 * sigma * sigma))
        self.alpha = (s_safe / (sigma * _SQRT2))[:, None]
        self.pref = (sigma * _SQRT_HALF_PI / s_safe)[:, None]
        self.erf_lo = erf(self.alpha * self.tau_star)
        self.signs = pot.signs
        # Stationary rows: the integral is V(q0) * T; stash V(q0) in amp.
        if self.still.any():
            v0 = np.exp(-d0sq / (2.0 * sigma * sigma))
            self.amp[self.still] = v0[self.still]

    def integral(self, duration) -> np.ndarray:
        """Integral of V over [0, duration] for each row; duration is (n,)."""
        duration = np.asarray(duration, dtype=float)
        up = erf(self.alpha * (duration[:, None] - self.tau_star))
        per_bump = self.amp * self.pref * (up + self.erf_lo)
        if self.still.any():
            flat = self.amp * duration[:, None]
            per_bump = np.where(self.still[:, None], flat, per_bump)
        return per_bump @ self.signs

    def select(self, rows: np.ndarray) -> "NumpySegments":
        out = object.__new__(NumpySegments)
        out.amp = self.amp[rows]
        out.tau_star = self.tau_star[rows]
        out.alpha = self.alpha[rows]
        out.pref = self.pref[rows]
        out.erf_lo = self.erf_lo[rows]
        out.signs = self.signs
        out.still = self.still[rows]
        return out


def checkpoint_action_integrals_numpy(
    qs: np.ndarray,
    ps: np.ndarray,
    times: np.ndarray,
    geom: BilliardGeometry,
    pot: QuenchPotential,
    max_bounces: int = MAX_BOUNCES_DEFAULT,
) -> tuple[np.ndarray, np.ndarray, TraceCounts]:
    """The numpy engine: ``checkpoint_action_integrals``'s results, one batch step per bounce.

    Every row still in flight advances one segment per loop step and fills
    every checkpoint up to the segment's end; the checkpoints a row stopped
    short of stay NaN.
    """
    times = np.asarray(times, dtype=float)
    n = qs.shape[0]
    t_end = float(times[-1])

    out = np.full((n, times.size), np.nan)
    k_first = int(np.searchsorted(times, 0.0, side="right"))
    out[:, :k_first] = 0.0
    segments = np.zeros(n, dtype=np.int64)
    bounce_count = np.zeros(n, dtype=np.int64)
    n_grazing = 0
    n_corner = 0
    if t_end == 0.0:
        return out, np.isnan(out[:, -1]), TraceCounts(segments, bounce_count, 0, 0)

    pmag = np.hypot(ps[:, 0], ps[:, 1])
    speed = 2.0 * pmag
    moving = speed > 0.0
    dirs = np.where(moving[:, None], ps / np.where(moving, pmag, 1.0)[:, None], [1.0, 0.0])

    # Live working arrays; idx maps rows back to the output.
    idx = np.arange(n)
    pos = qs.astype(float).copy()
    d = dirs.astype(float)
    s = speed.copy()
    elapsed = np.zeros(n)
    acc = np.zeros(n)  # running integral of V up to `elapsed`
    bounces = np.zeros(n, dtype=np.int64)
    k_next = np.full(n, k_first, dtype=np.intp)

    while idx.size:
        segments[idx] += 1
        t_hit, normals, _, ok, corner = first_hit_arrays(geom, pos, d)
        with np.errstate(divide="ignore", invalid="ignore"):
            t_wall = np.where(s > 0.0, t_hit / np.where(s > 0.0, s, 1.0), np.inf)
        bad = ~ok & (s > 0.0)

        remaining = t_end - elapsed
        finishing = t_wall >= remaining
        dur = np.where(finishing, remaining, t_wall)
        dur = np.where(bad, 0.0, dur)
        t_new = np.where(finishing, t_end, elapsed + dur)

        cst = NumpySegments(pot, pos, d, s)

        k_hi = np.where(bad, k_next, np.searchsorted(times, t_new, side="right"))
        counts = k_hi - k_next
        total = int(counts.sum())
        if total > 0:
            rows = np.repeat(np.arange(idx.size), counts)
            offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
            kk = np.repeat(k_next, counts) + offsets
            rel = times[kk] - elapsed[rows]
            out[idx[rows], kk] = acc[rows] + cst.select(rows).integral(rel)
        k_next = k_hi

        acc = acc + cst.integral(dur)
        pos = pos + d * (s * dur)[:, None]
        elapsed = t_new

        bounce = ~finishing & ~bad
        if bounce.any():
            nn = normals[bounce]
            dd = d[bounce]
            dn = (dd * nn).sum(axis=1)
            n_grazing += int((np.abs(dn) < geometry.TOL_GRAZING).sum())
            n_corner += int(corner[bounce].sum())
            dd = dd - 2.0 * dn[:, None] * nn
            norm = np.hypot(dd[:, 0], dd[:, 1])
            dd /= norm[:, None]
            d[bounce] = dd
            pos[bounce] += WALL_NUDGE * nn
            bounces[bounce] += 1

        done = finishing | bad | (bounces > max_bounces)
        if done.any():
            bounce_count[idx[done]] = bounces[done]
            keep = ~done
            idx = idx[keep]
            pos = pos[keep]
            d = d[keep]
            s = s[keep]
            elapsed = elapsed[keep]
            acc = acc[keep]
            bounces = bounces[keep]
            k_next = k_next[keep]

    return out, np.isnan(out[:, -1]), TraceCounts(segments, bounce_count, n_grazing, n_corner)


# ---------------------------------------------------------------------------
# The shell-resolved estimator

# Its sampler stream tag, disjoint from the program's own (sampler.STREAM_*).
STREAM_SHELL = 2


def sample_positions_rowwise(geom: BilliardGeometry, rng, n: int) -> np.ndarray:
    """``sampler.sample_positions`` as it was stated on (m, 2) rows: the
    proposals scaled in place, tested as rows and compressed with a row
    mask.  The column-wise form must match it bit for bit."""
    w, h = geom.bounding_box
    out = np.empty((n, 2))
    filled = 0
    while filled < n:
        props = rng.random((n - filled, 2))
        props[:, 0] *= w
        props[:, 1] *= h
        good = geometry.contains_many(geom, props)
        k = int(good.sum())
        out[filled : filled + k] = props[good]
        filled += k
    return out


def sample_shell(
    geom: BilliardGeometry, energy: float, n: int, seed: int, shell_index: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Microcanonical sample on the shell H = |p|^2 = energy.

    Positions uniform over the billiard, momentum direction uniform on the
    circle, |p| = sqrt(energy).
    """
    if not energy >= 0.0:
        raise ValueError(f"shell energy must be nonnegative, got {energy}")
    qs = np.empty((n, 2))
    ps = np.empty((n, 2))
    pmag = math.sqrt(energy)
    for block in range(0, n, sampler.SAMPLE_BLOCK):
        hi = min(block + sampler.SAMPLE_BLOCK, n)
        b = block // sampler.SAMPLE_BLOCK
        ss = np.random.SeedSequence(
            entropy=int(seed), spawn_key=(STREAM_SHELL, shell_index, b)
        )
        rng = np.random.Generator(np.random.Philox(ss))
        qs[block:hi] = sampler.sample_positions(geom, rng, hi - block)
        theta = rng.random(hi - block) * (2.0 * math.pi)
        ps[block:hi, 0] = pmag * np.cos(theta)
        ps[block:hi, 1] = pmag * np.sin(theta)
    return qs, ps


def shell_final_energy_sample(
    geom: BilliardGeometry,
    pot: QuenchPotential,
    energy: float,
    n: int,
    seed: int,
) -> np.ndarray:
    """Post-quench energies of a microcanonical sample on one shell.

    For a quench the conditional final-energy distribution collapses to
    E_f = E_0 + (xi_f - xi_0) V(q), so this histogram must match the direct
    work shortcut shifted by E_0.
    """
    qs, ps = sample_shell(geom, energy, n, seed)
    kinetic = (ps * ps).sum(axis=1)
    return kinetic + pot.xi_f * potential.evaluate(pot, qs)


def shell_characteristic(
    beta: float,
    plan: UGridPlan,
    hbar: float,
    geom: BilliardGeometry,
    pot: QuenchPotential,
    energies,
    samples_per_shell: int,
    seed: int,
    max_bounces: int = MAX_BOUNCES_DEFAULT,
) -> CharacteristicGrid:
    """Shell-resolved estimator: Boltzmann-weighted microcanonical averages.

    Each listed energy is sampled uniformly on its shell (uniform position,
    uniform momentum direction, |p| = sqrt(E)) and the per-shell phase
    averages are combined with weights proportional to exp(-beta E).  The
    flat weighting in E is valid here because the density of states of the
    free billiard is constant.
    """
    energies = np.asarray(energies, dtype=float)
    if energies.size == 0:
        raise ValueError("need at least one shell energy")
    if np.any(np.diff(energies) <= 0.0):
        raise ValueError("shell energies must be strictly increasing")
    if not hbar > 0.0:
        raise ValueError(f"hbar must be positive, got {hbar}")
    times = plan.u_values * hbar

    log_w = -beta * (energies - energies.min())
    weights = np.exp(log_w)
    wsum = weights.sum()

    k = times.size
    g_shell = np.zeros((energies.size, k), dtype=complex)
    var_c = np.zeros((energies.size, k))
    var_s = np.zeros((energies.size, k))
    total_failed = 0
    columns = np.arange(times.size)
    for m, energy in enumerate(energies):
        qs, ps = sample_shell(geom, float(energy), samples_per_shell, seed, m)
        [((c, s, c2, s2), ok, fail, _)], _ = _chunk_phase_sums(
            (qs, ps, times, geom, pot, max_bounces, [(columns, pot.delta_xi / hbar, None)])
        )
        total_failed += fail
        if fail > FAILURE_BUDGET * samples_per_shell:
            raise ExcessiveFailures(f"shell {m}: {fail} of {samples_per_shell} failed")
        mc = c / ok
        ms = s / ok
        g_shell[m] = mc + 1j * ms
        if ok > 1:
            var_c[m] = np.maximum(c2 - ok * mc * mc, 0.0) / (ok - 1) / ok
            var_s[m] = np.maximum(s2 - ok * ms * ms, 0.0) / (ok - 1) / ok

    g_mag = (weights @ g_shell) / wsum
    se_c = np.sqrt((weights * weights) @ var_c) / wsum
    se_s = np.sqrt((weights * weights) @ var_s) / wsum

    # Every phase is exactly 1 at zero time, so the weighted mean there is
    # exactly 1; enforce it against summation-order rounding.
    g_mag[0] = 1.0 + 0.0j
    return CharacteristicGrid(
        plan=plan,
        g_values=g_mag,
        stderr_re=se_c,
        stderr_im=se_s,
        n_samples=int(energies.size * samples_per_shell),
        hbar=float(hbar),
        beta=float(beta),
        n_failed=total_failed,
        metadata={"seed": int(seed), "estimator": "shell", "n_shells": int(energies.size)},
    )


# ---------------------------------------------------------------------------
# Closed forms and planning helpers the tests size or check against


def density_of_states(geom: BilliardGeometry, energy: float) -> float:
    """Phase-space density of states of the free billiard: pi * area.

    For H = |p|^2 in a 2D domain of area A the shell measure
    integral dq dp delta(E - |p|^2) equals pi A for every E > 0.
    """
    if not energy > 0.0:
        raise ValueError(f"energy must be positive, got {energy}")
    return math.pi * area(geom)


def potential_extrema(
    geom: BilliardGeometry, pot: QuenchPotential, scan_step: float | None = None
) -> tuple[float, float]:
    """min and max of V over the billiard by dense scan plus local polish."""
    from scipy.optimize import minimize

    step = pot.sigma / 20.0 if scan_step is None else scan_step
    w, h = geom.bounding_box
    xs = np.arange(0.5 * step, w, step)
    ys = np.arange(0.5 * step, h, step)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    inside = geometry.contains_many(geom, pts)
    pts = pts[inside]
    vals = potential.evaluate(pot, pts)
    vmin = float(vals.min())
    vmax = float(vals.max())
    # Polish from the best grid points and from every bump center.
    starts = [pts[vals.argmin()], pts[vals.argmax()], *pot.centers]
    for q0 in starts:
        for sign in (1.0, -1.0):
            res = minimize(
                lambda q: sign * potential.evaluate(pot, q),
                np.asarray(q0, dtype=float),
                method="Nelder-Mead",
                options={"xatol": 1e-10, "fatol": 1e-12},
            )
            if contains(geom, res.x):
                v = float(potential.evaluate(pot, res.x))
                vmin = min(vmin, v)
                vmax = max(vmax, v)
    return vmin, vmax


def histogram_to_characteristic(hist: WorkHistogram, u_values: np.ndarray) -> np.ndarray:
    """Forward transform G(u) = sum_j density_j exp(i u w_j) dw."""
    u_values = np.asarray(u_values, dtype=float)
    phase = np.outer(u_values, hist.w_values)
    return hist.bin_width * ((np.cos(phase) + 1j * np.sin(phase)) @ hist.density)


def _dense_transform(plan: UGridPlan, eps: float):
    """(b_k, du / (2 pi), cos(u_k w_j), sin(u_k w_j)): the one-sided inverse
    transform as two dense (n, 2n - 1) matrices."""
    phase = np.outer(plan.u_values, plan.w_values)
    damp = np.exp(-0.5 * (eps * plan.u_values) ** 2)
    return damp, plan.du / (2.0 * math.pi), np.cos(phase), np.sin(phase)


def dense_invert(g: CharacteristicGrid, broadening: float) -> tuple[np.ndarray, np.ndarray]:
    """(density, error) of ``spectra.invert`` as dense sums over u,

        P(w_j) = du / (2 pi) [b_0 Re G_0
                              + 2 sum_{k >= 1} b_k (Re G_k cos(u_k w_j) + Im G_k sin(u_k w_j))],

    b_k = exp(-eps^2 u_k^2 / 2), with the error of independent u points."""
    b, scale, cosm, sinm = _dense_transform(g.plan, float(broadening))
    cosm, sinm = cosm[1:], sinm[1:]
    gb = g.g_values * b
    density = scale * (gb[0].real + 2.0 * (gb[1:].real @ cosm + gb[1:].imag @ sinm))
    sq_re, sq_im = (g.stderr_re * b) ** 2, (g.stderr_im * b) ** 2
    var = (scale**2) * (sq_re[0] + 4.0 * (sq_re[1:] @ (cosm**2) + sq_im[1:] @ (sinm**2)))
    return density, np.sqrt(var)


def dense_functional_coefficients(plan: UGridPlan, broadening: float, kernels) -> list[np.ndarray]:
    """``spectra.functional_coefficients`` as dense sums over the W bins."""
    damp, scale, cosm, sinm = _dense_transform(plan, float(broadening))
    weight = scale * damp
    weight[1:] *= 2.0
    return [np.concatenate([weight * (cosm @ k), weight * (sinm @ k)]) for k in kernels]


def sparse_hamiltonians(geom_or_domain, pot: QuenchPotential, hbar: float, h: float):
    """Sparse symmetric H(xi_0) and H(xi_f) on ``quantum.build_grid``'s
    lattice, built site by site through a key lookup."""
    grid = quantum.build_grid(geom_or_domain, h)
    n = grid.n_sites
    ij = np.rint(grid.coords / h).astype(np.int64)
    keys = ij[:, 0] * (grid.ny + 2) + ij[:, 1]
    lookup = {int(k): i for i, k in enumerate(keys)}
    scale = hbar * hbar / (h * h)

    rows, cols = [], []
    for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        nb = (ij[:, 0] + dx) * (grid.ny + 2) + (ij[:, 1] + dy)
        for i, k in enumerate(nb):
            j = lookup.get(int(k))
            if j is not None:
                rows.append(i)
                cols.append(j)
    data = np.full(len(rows), -scale)
    lap = sparse.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    kinetic = sparse.diags(np.full(n, 4.0 * scale)) + lap

    v = potential.evaluate(pot, grid.coords)
    h0 = (kinetic + sparse.diags(pot.xi_0 * v)).tocsr() if pot.xi_0 else kinetic.tocsr()
    hf = (kinetic + sparse.diags(pot.xi_f * v)).tocsr() if pot.xi_f else kinetic.tocsr()
    return h0, hf, grid


def bin_weighted_spikes(
    spike_w: np.ndarray, masses: np.ndarray, w_values: np.ndarray, broadening: float
) -> np.ndarray:
    """Density of deterministic point masses on an existing W grid.

    Each spike contributes mass * N(w; spike, eps) at the bin centers,
    truncated beyond 8 eps.  The masses are exact, so there is no error.
    """
    spike_w = np.asarray(spike_w, dtype=float).ravel()
    masses = np.asarray(masses, dtype=float).ravel()
    n_bins = w_values.size
    dw = float(w_values[1] - w_values[0])
    eps = float(broadening)
    density = np.zeros(n_bins)
    halfwidth = int(math.ceil(8.0 * eps / dw))
    base = np.floor((spike_w - w_values[0]) / dw).astype(np.intp)
    norm = 1.0 / (eps * math.sqrt(2.0 * math.pi))
    for off in range(-halfwidth, halfwidth + 2):
        j = base + off
        ok = (j >= 0) & (j < n_bins)
        z = (w_values[j[ok]] - spike_w[ok]) / eps
        contrib = masses[ok] * norm * np.exp(-0.5 * z * z)
        density += np.bincount(j[ok], weights=contrib, minlength=n_bins)
    return density


def bin_spikes_per_offset(samples, plan: UGridPlan, broadening: float) -> WorkHistogram:
    """``spectra.bin_spikes`` as it was stated before its Gaussians were
    gridded: one exp per sample and bin offset, over the whole sample at
    once, each Gaussian taken from the bin's own center.  The gridded form
    must match it within rounding."""
    samples = np.asarray(samples, dtype=float).ravel()
    n = samples.size
    w_values = plan.w_values
    n_bins = w_values.size
    dw = plan.dw
    eps = float(broadening)
    density = np.zeros(n_bins)
    sumsq = np.zeros(n_bins)
    halfwidth = int(math.ceil(8.0 * eps / dw))
    base = np.floor((samples - w_values[0]) / dw).astype(np.intp)
    norm = 1.0 / (eps * math.sqrt(2.0 * math.pi))
    for off in range(-halfwidth, halfwidth + 2):
        j = base + off
        ok = (j >= 0) & (j < n_bins)
        if not ok.any():
            continue
        z = (w_values[j[ok]] - samples[ok]) / eps
        contrib = (1.0 / n) * norm * np.exp(-0.5 * z * z)
        density += np.bincount(j[ok], weights=contrib, minlength=n_bins)
        sumsq += np.bincount(j[ok], weights=contrib * contrib, minlength=n_bins)
    var = np.maximum(sumsq * n - density * density, 0.0) / max(n - 1, 1)
    return WorkHistogram(w_values, density, np.sqrt(var), dw, eps, float(density.sum() * dw))


def quantum_spike_density(
    spec: quantum.QuenchSpectra, beta: float, w_values: np.ndarray, broadening: float
) -> np.ndarray:
    """Two-point-measurement P(W) binned from its spikes: E_f(n) - E_0(m),
    weighted by the Boltzmann factor of m times the transition probability."""
    w = quantum.boltzmann_weights(spec.e0, beta)
    masses = (w[:, None] * spec.transition).ravel()
    spikes = (spec.ef[None, :] - spec.e0[:, None]).ravel()
    return bin_weighted_spikes(spikes, masses, w_values, broadening)


def load_spectra(path) -> quantum.QuenchSpectra:
    """The spectra a ``quantum.save_spectra`` container holds."""
    with open(path, "rb") as fh:
        magic = fh.read(len(quantum._MAGIC))
        if magic != quantum._MAGIC:
            raise ValueError(f"not a spectra container: bad magic {magic!r}")
        (hlen,) = struct.unpack("<I", fh.read(4))
        header = json.loads(fh.read(hlen).decode("utf-8"))
        n0, nf = header["n0"], header["nf"]
        e0 = np.frombuffer(fh.read(8 * n0), dtype="<f8").copy()
        ef = np.frombuffer(fh.read(8 * nf), dtype="<f8").copy()
        t = np.frombuffer(fh.read(8 * n0 * nf), dtype="<f8").reshape(n0, nf).copy()
    return quantum.QuenchSpectra(
        e0=e0,
        ef=ef,
        transition=t,
        hbar=header["hbar"],
        h=header["h"],
        n_sites=header["n_sites"],
        metadata=header.get("metadata", {}),
    )


def rebin(hist: WorkHistogram, factor: int) -> WorkHistogram:
    """Coarsen a histogram by an integer factor (presentation only)."""
    if factor < 1:
        raise ValueError("factor must be >= 1")
    n = (hist.w_values.size // factor) * factor
    w = hist.w_values[:n].reshape(-1, factor).mean(axis=1)
    d = hist.density[:n].reshape(-1, factor).mean(axis=1)
    e = np.sqrt((hist.error[:n].reshape(-1, factor) ** 2).sum(axis=1)) / factor
    return WorkHistogram(
        w_values=w,
        density=d,
        error=e,
        bin_width=hist.bin_width * factor,
        broadening=hist.broadening,
        total_mass=float(d.sum() * hist.bin_width * factor),
        imag_residue=hist.imag_residue,
        metadata=dict(hist.metadata),
    )


def weyl_level_spacing(geom: BilliardGeometry, hbar: float) -> float:
    """Mean level spacing 4 pi hbar^2 / area for H = -hbar^2 Laplacian."""
    return 4.0 * math.pi * hbar * hbar / area(geom)


def supported_states(
    geom: BilliardGeometry, h: float, points_per_wavelength: float = 5.0
) -> int:
    """How many low states a grid of spacing h resolves, by the
    points-per-wavelength rule and the area law for the state count."""
    return int(math.pi * area(geom) / (points_per_wavelength * h) ** 2)


def plan_step_for_states(
    geom: BilliardGeometry,
    n_keep: int,
    keep_ratio: float = 2.24,
    points_per_wavelength: float = 5.0,
) -> float:
    """Grid spacing whose resolved-state count is keep_ratio * n_keep."""
    target = keep_ratio * n_keep
    return math.sqrt(math.pi * area(geom) / target) / points_per_wavelength


def final_state_count(
    geom: BilliardGeometry,
    pot: QuenchPotential,
    hbar: float,
    e_max: float,
    grid_n: int = 200,
) -> int:
    """Area-law estimate of quenched states below e_max (counts the wells)."""
    w, hgt = geom.bounding_box
    xs = np.linspace(0.0, w, grid_n)
    ys = np.linspace(0.0, hgt, grid_n)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    inside = geometry.contains_many(geom, pts)
    v = potential.evaluate(pot, pts[inside])
    cell = (w / grid_n) * (hgt / grid_n)
    phase_area = np.maximum(e_max - pot.xi_f * v, 0.0).sum() * cell
    return int(phase_area / (4.0 * math.pi * hbar * hbar))
