"""Classical work statistics for the sudden quench.

For an instantaneous parameter change the work of a sample is just the
energy jump at its initial point, W = (xi_f - xi_0) V(q0), because the state
has no time to move.  Positions are uniform over the billiard (the
unperturbed Hamiltonian is purely kinetic), which makes the classical work
distribution independent of temperature.

Partition-function ratios are computed by deterministic tensor-grid
Gauss-Legendre quadrature on a rectangle + polar-quarter-disk decomposition
of the domain, refined until the relative change drops below tolerance.
Numerator and denominator are quadratures on the same nodes, so a null
quench (xi_f == xi_0) gives a ratio of exactly 1.
Phase-space measures carry no h^D factor; every reported quantity is a ratio
in which it cancels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry, sampler
from .geometry import BilliardGeometry
from .potential import QuenchPotential, evaluate


class QuadratureNonConvergence(RuntimeError):
    pass


@dataclass(frozen=True)
class ClassicalWorkSample:
    values: np.ndarray
    beta: float
    seed: int

    @property
    def n(self) -> int:
        return self.values.size


def sample_classical_work(
    geom: BilliardGeometry,
    pot: QuenchPotential,
    beta: float,
    n: int,
    seed: int,
) -> ClassicalWorkSample:
    """n work values from Boltzmann-drawn phase points.

    W depends on the position alone, so only positions are drawn: the same
    ones ``sampler.sample_ensemble`` draws for (n, seed) at any beta.  The
    values therefore do not depend on ``beta``, which is kept as a label.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    qs = sampler._ensemble_positions(geom, n, seed)
    w = pot.delta_xi * evaluate(pot, qs)
    return ClassicalWorkSample(values=w, beta=float(beta), seed=int(seed))


def _gauss_nodes(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def _domain_integral(geom: BilliardGeometry, f, n: int) -> float:
    """Integral of f(q) over the billiard with n-point tensor quadrature."""
    r, length = geom.r, geom.l
    total = 0.0
    if length > 0.0:
        xs, wx = _gauss_nodes(0.0, length, n)
        ys, wy = _gauss_nodes(0.0, r, n)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
        vals = f(pts).reshape(n, n)
        total += float(wx @ vals @ wy)
    rho, wr = _gauss_nodes(0.0, r, n)
    phi, wp = _gauss_nodes(0.0, 0.5 * math.pi, n)
    grho, gphi = np.meshgrid(rho, phi, indexing="ij")
    pts = np.stack(
        [length + grho.ravel() * np.cos(gphi.ravel()), grho.ravel() * np.sin(gphi.ravel())],
        axis=1,
    )
    vals = (f(pts) * grho.ravel()).reshape(n, n)
    total += float(wr @ vals @ wp)
    return total


def partition_ratio(
    geom: BilliardGeometry,
    pot: QuenchPotential,
    beta: float,
    rel_tol: float = 1e-8,
    max_nodes: int = 2048,
) -> float:
    """Ratio of classical partition functions Z(xi_f) / Z(xi_0).

    Momentum Gaussians cancel, leaving the ratio of position integrals of
    exp(-beta xi V).  Both integrals are quadratures on the same nodes, so
    the ratio is exactly 1 whenever xi_f == xi_0.  Quadrature is refined by
    doubling the node count until the relative change is below rel_tol.
    """
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")

    def ratio_at(n: int) -> float:
        num = _domain_integral(geom, lambda q: np.exp(-beta * pot.xi_f * evaluate(pot, q)), n)
        den = _domain_integral(geom, lambda q: np.exp(-beta * pot.xi_0 * evaluate(pot, q)), n)
        return num / den

    n = 32
    prev = ratio_at(n)
    while n < max_nodes:
        n *= 2
        cur = ratio_at(n)
        if abs(cur - prev) <= rel_tol * abs(cur):
            return cur
        prev = cur
    raise QuadratureNonConvergence(
        f"partition ratio did not converge to {rel_tol} by {max_nodes} nodes"
    )


def classical_free_energy_difference(
    geom: BilliardGeometry, pot: QuenchPotential, beta: float
) -> float:
    """Free energy difference -ln(Z_f / Z_0) / beta in energy units."""
    ratio = partition_ratio(geom, pot, beta)
    if not ratio > 0.0:
        raise QuadratureNonConvergence(f"nonpositive partition ratio {ratio}")
    return -math.log(ratio) / beta


def density_of_states(geom: BilliardGeometry, energy: float) -> float:
    """Phase-space density of states of the free billiard: pi * area.

    For H = |p|^2 in a 2D domain of area A the shell measure
    integral dq dp delta(E - |p|^2) equals pi A for every E > 0.
    """
    if not energy > 0.0:
        raise ValueError(f"energy must be positive, got {energy}")
    return math.pi * geometry.area(geom)


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
    vals = evaluate(pot, pts)
    vmin = float(vals.min())
    vmax = float(vals.max())
    # Polish from the best grid points and from every bump center.
    starts = [pts[vals.argmin()], pts[vals.argmax()], *pot.centers]
    for q0 in starts:
        for sign in (1.0, -1.0):
            res = minimize(
                lambda q: sign * evaluate(pot, q),
                np.asarray(q0, dtype=float),
                method="Nelder-Mead",
                options={"xatol": 1e-10, "fatol": 1e-12},
            )
            if geometry.contains(geom, res.x):
                v = float(evaluate(pot, res.x))
                vmin = min(vmin, v)
                vmax = max(vmax, v)
    return vmin, vmax


def shell_final_energy_sample(
    geom: BilliardGeometry,
    pot: QuenchPotential,
    energy: float,
    n: int,
    seed: int,
) -> np.ndarray:
    """Post-quench energies of a microcanonical sample on one shell.

    Validation helper (used by the tests): for a quench the conditional
    final-energy distribution collapses to E_f = E_0 + (xi_f - xi_0) V(q),
    so this histogram must match the direct work shortcut shifted by E_0.
    """
    qs, ps = sampler.sample_shell(geom, energy, n, seed)
    kinetic = (ps * ps).sum(axis=1)
    return kinetic + pot.xi_f * evaluate(pot, qs)
