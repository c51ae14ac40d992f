"""Classical work statistics for the sudden quench.

For an instantaneous parameter change the work of a sample is just the
energy jump at its initial point, W = (xi_f - xi_0) V(q0), because the state
has no time to move.  Positions are uniform over the billiard (the
unperturbed Hamiltonian is purely kinetic), which makes the classical work
distribution independent of temperature.

Partition-function ratios are computed by deterministic tensor-grid
Gauss-Legendre quadrature on a rectangle + polar-quarter-disk decomposition
of the domain, refined until the relative change drops below tolerance.
Each integral is summed in log space, so cold temperatures do not
overflow.  Numerator and denominator are quadratures on the same nodes, so
a null quench (xi_f == xi_0) gives a log ratio of exactly 0.
Phase-space measures carry no h^D factor; every reported quantity is a ratio
in which it cancels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sampler
from .geometry import BilliardGeometry
from .potential import QuenchPotential, evaluate


class QuadratureNonConvergence(RuntimeError):
    pass


@dataclass(frozen=True)
class ClassicalWorkSample:
    values: np.ndarray

    @property
    def n(self) -> int:
        return self.values.size


def sample_classical_work(
    geom: BilliardGeometry, pot: QuenchPotential, n: int, seed: int
) -> ClassicalWorkSample:
    """n work values from Boltzmann-drawn phase points, at any temperature.

    W depends on the position alone, so only positions are drawn: the same
    ones ``sampler.sample_ensemble`` draws for (n, seed).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    qs = sampler._ensemble_positions(geom, n, seed)
    return ClassicalWorkSample(values=pot.delta_xi * evaluate(pot, qs))


def _gauss_nodes(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def _log_domain_integrals(geom: BilliardGeometry, pot: QuenchPotential, n: int, scales) -> list:
    """log of the integral of exp(s V(q)) over the billiard for each s in
    ``scales``, n-point tensor quadrature with V evaluated once on the nodes.

    Each sum is taken as log sum w exp(e - m) + m, with m the largest exponent
    on the nodes, so no term overflows however cold the temperature.
    """
    r, length = geom.r, geom.l
    parts = []  # (weights along x or rho, V on the n x n nodes, weights along y or phi)
    if length > 0.0:
        xs, wx = _gauss_nodes(0.0, length, n)
        ys, wy = _gauss_nodes(0.0, r, n)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
        parts.append((wx, evaluate(pot, pts).reshape(n, n), wy))
    rho, wr = _gauss_nodes(0.0, r, n)
    phi, wp = _gauss_nodes(0.0, 0.5 * math.pi, n)
    grho, gphi = np.meshgrid(rho, phi, indexing="ij")
    pts = np.stack(
        [length + grho.ravel() * np.cos(gphi.ravel()), grho.ravel() * np.sin(gphi.ravel())],
        axis=1,
    )
    parts.append((wr * rho, evaluate(pot, pts).reshape(n, n), wp))  # the area element is rho
    logs = []
    for s in scales:
        exponents = [(wa, s * v, wb) for wa, v, wb in parts]
        m = max(float(e.max()) for _, e, _ in exponents)
        logs.append(math.log(sum(float(wa @ np.exp(e - m) @ wb) for wa, e, wb in exponents)) + m)
    return logs


def log_partition_ratio(
    geom: BilliardGeometry,
    pot: QuenchPotential,
    beta: float,
    rel_tol: float = 1e-8,
    max_nodes: int = 2048,
) -> float:
    """log of the ratio of classical partition functions, log Z(xi_f) / Z(xi_0).

    Momentum Gaussians cancel, leaving the ratio of position integrals of
    exp(-beta xi V), each taken in log space.  Both integrals are
    quadratures on the same nodes, on which V is evaluated once, so the log
    ratio is exactly 0 whenever xi_f == xi_0.  Quadrature is refined by
    doubling the node count until the ratio changes by at most rel_tol,
    |r_n / r_(n-1) - 1| <= rel_tol.
    """
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")

    def log_ratio_at(n: int) -> float:
        num, den = _log_domain_integrals(geom, pot, n, (-beta * pot.xi_f, -beta * pot.xi_0))
        return num - den

    n = 32
    prev = log_ratio_at(n)
    while n < max_nodes:
        n *= 2
        cur = log_ratio_at(n)
        if abs(math.expm1(cur - prev)) <= rel_tol:
            return cur
        prev = cur
    raise QuadratureNonConvergence(
        f"partition ratio did not converge to {rel_tol} by {max_nodes} nodes"
    )


def classical_free_energy_difference(
    geom: BilliardGeometry, pot: QuenchPotential, beta: float
) -> float:
    """Free energy difference -ln(Z_f / Z_0) / beta in energy units."""
    return -log_partition_ratio(geom, pot, beta) / beta
