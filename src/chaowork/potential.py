"""Quench perturbation: four signed Gaussian bumps.

``evaluate`` returns the unit-amplitude signed sum V(q); the full
perturbation is xi * V(q), and the energy jump of a sudden quench is
(xi_f - xi_0) * V(q).  ``segment_constants(...).integral`` integrates V
along a batch of straight constant-speed flights in closed form (1D
error-function integral times the transverse Gaussian factor), which is both
exact and fast.  The scalar ``segment_integral`` and the composite Simpson
oracle it is checked against live in ``tests/reference.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

DEFAULT_CENTERS = ((0.2, 0.4), (0.67, 0.5), (0.5, 0.15), (0.3, 0.75))
DEFAULT_SIGNS = (1.0, -1.0, 1.0, -1.0)

_SQRT2 = math.sqrt(2.0)
_SQRT_HALF_PI = math.sqrt(math.pi / 2.0)


@dataclass(frozen=True, eq=False)
class QuenchPotential:
    centers: np.ndarray = field(
        default_factory=lambda: np.array(DEFAULT_CENTERS, dtype=float)
    )
    signs: np.ndarray = field(default_factory=lambda: np.array(DEFAULT_SIGNS))
    sigma: float = 0.1
    xi_f: float = 85.0
    xi_0: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "centers", np.asarray(self.centers, dtype=float))
        object.__setattr__(self, "signs", np.asarray(self.signs, dtype=float))
        if self.centers.ndim != 2 or self.centers.shape[1] != 2:
            raise ValueError("centers must be an (n, 2) array")
        if self.signs.shape != (self.centers.shape[0],):
            raise ValueError("signs must match the number of centers")
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")

    @property
    def delta_xi(self) -> float:
        return self.xi_f - self.xi_0


def default_potential(xi_f: float = 85.0, xi_0: float = 0.0) -> QuenchPotential:
    return QuenchPotential(xi_f=xi_f, xi_0=xi_0)


def evaluate(pot: QuenchPotential, q) -> float | np.ndarray:
    """Unit-amplitude signed Gaussian sum V(q); accepts (..., 2) arrays."""
    q = np.asarray(q, dtype=float)
    scalar = q.ndim == 1
    dx = q[..., None, 0] - pot.centers[:, 0]
    dy = q[..., None, 1] - pot.centers[:, 1]
    inv = 1.0 / (2.0 * pot.sigma * pot.sigma)
    arg = (dx * dx + dy * dy) * inv
    vals = np.exp(-arg) @ pot.signs
    return float(vals) if scalar else vals


class _SegmentConstants:
    """Per-(segment, bump) closed-form pieces reused for partial integrals.

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

    def select(self, rows: np.ndarray) -> "_SegmentConstants":
        out = object.__new__(_SegmentConstants)
        out.amp = self.amp[rows]
        out.tau_star = self.tau_star[rows]
        out.alpha = self.alpha[rows]
        out.pref = self.pref[rows]
        out.erf_lo = self.erf_lo[rows]
        out.signs = self.signs
        out.still = self.still[rows]
        return out


def segment_constants(pot, q0s, directions, speeds) -> _SegmentConstants:
    """Batch closed-form setup shared by full and partial segment integrals."""
    return _SegmentConstants(pot, q0s, directions, speeds)
