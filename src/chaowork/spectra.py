"""Fourier inversion: characteristic grids to work histograms.

The W grid is the exact discrete dual of the u grid: the one-sided grid of M
points u_k = k du (G on negative u is the conjugate, so it is not stored)
maps to N = 2M - 1 bins of width dw = 2 pi / (N du)
centered on the planner's window center.  With that pairing the discrete
transforms invert each other exactly, the total mass equals G(0), and
Gaussian broadening (multiplying G by exp(-eps^2 u^2 / 2), i.e. convolving
P with a Gaussian of width eps) preserves the mass bin for bin.

Statistical errors are propagated from the per-u standard errors through the
linear transform, treating grid points as independent.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .characteristic import CharacteristicGrid

logger = logging.getLogger(__name__)

ALIAS_TOLERANCE = 0.01


class AliasingSuspect(RuntimeError):
    """Significant weight survives at u_max: the work window is too narrow."""


class GridMismatch(ValueError):
    """Histograms on different W grids or broadenings cannot be compared."""


@dataclass
class WorkHistogram:
    """Binned work density (probability per unit W) on a uniform grid."""

    w_values: np.ndarray
    density: np.ndarray
    error: np.ndarray
    bin_width: float
    broadening: float
    total_mass: float
    imag_residue: float = 0.0
    metadata: dict = field(default_factory=dict)

    @property
    def w_min(self) -> float:
        return float(self.w_values[0] - 0.5 * self.bin_width)

    @property
    def w_max(self) -> float:
        return float(self.w_values[-1] + 0.5 * self.bin_width)

    def mean(self) -> float:
        return float((self.w_values * self.density).sum() * self.bin_width)

    def same_grid(self, other: "WorkHistogram") -> bool:
        return (
            self.w_values.shape == other.w_values.shape
            and np.array_equal(self.w_values, other.w_values)
            and self.broadening == other.broadening
        )


def dual_w_grid(u_values: np.ndarray, w_center: float) -> tuple[np.ndarray, float]:
    """Work grid dual to a one-sided uniform u grid."""
    m = u_values.size
    du = float(u_values[1] - u_values[0]) if m > 1 else 1.0
    n = 2 * m - 1
    dw = 2.0 * math.pi / (n * du)
    w = w_center + (np.arange(n) - (m - 1)) * dw
    return w, dw


def invert(
    g: CharacteristicGrid,
    broadening: float,
    check_aliasing: bool = True,
) -> WorkHistogram:
    """Discrete inverse transform of G(u) onto the dual W grid.

    ``broadening`` is the Gaussian smoothing width eps; eps = 0 disables
    smoothing.  Raises AliasingSuspect when the integrand still carries
    weight above ALIAS_TOLERANCE at u_max.
    """
    u, vals, se_re, se_im = g.u_values, g.g_values, g.stderr_re, g.stderr_im
    du = float(u[1] - u[0])
    w, dw = dual_w_grid(u, g.w_center)

    eps = float(broadening)
    if eps < 0.0:
        raise ValueError("broadening must be nonnegative")
    b = np.exp(-0.5 * (eps * u) ** 2)
    gb = vals * b

    tail_raw = abs(vals[-1])
    tail = abs(gb[-1])
    if tail_raw > ALIAS_TOLERANCE:
        logger.debug(
            "raw |G(u_max)| = %.3f (a work atom keeps it finite; the broadened "
            "tail is what matters for aliasing)",
            tail_raw,
        )
    if check_aliasing and tail > ALIAS_TOLERANCE:
        raise AliasingSuspect(
            f"|G(u_max)| = {tail:.3g} after broadening; widen the work window"
        )

    phase = np.outer(u[1:], w)
    cosm = np.cos(phase)
    sinm = np.sin(phase)
    scale = du / (2.0 * math.pi)
    density = scale * (gb[0].real + 2.0 * (gb[1:].real @ cosm + gb[1:].imag @ sinm))

    var = (scale**2) * (
        (se_re[0] * b[0]) ** 2
        + 4.0 * (((se_re[1:] * b[1:]) ** 2) @ (cosm**2) + ((se_im[1:] * b[1:]) ** 2) @ (sinm**2))
    )
    error = np.sqrt(var)

    total_mass = float(density.sum() * dw)
    scale_ref = max(abs(gb[0].real), 1e-300)
    residue = abs(gb[0].imag) / scale_ref
    return WorkHistogram(
        w_values=w,
        density=density,
        error=error,
        bin_width=dw,
        broadening=eps,
        total_mass=total_mass,
        imag_residue=residue,
        metadata={
            "n_samples": g.n_samples,
            "hbar": g.hbar,
            "beta": g.beta,
            "tail_raw": tail_raw,
            "tail_broadened": tail,
        },
    )


def bin_spikes(
    samples: np.ndarray,
    w_values: np.ndarray,
    broadening: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian-broadened histogram of Monte Carlo samples on an existing W grid.

    Each of the n samples carries weight 1/n and contributes
    N(w; sample, eps)/n at the bin centers, truncated beyond 8 eps;
    eps = ``broadening`` must be positive.  Returns the density and its
    per-bin standard error.  Weighted point masses (an exact spectrum) take
    the other route: their characteristic function through ``invert``.
    """
    samples = np.asarray(samples, dtype=float).ravel()
    n = samples.size
    n_bins = w_values.size
    dw = float(w_values[1] - w_values[0])
    eps = float(broadening)
    if not eps > 0.0:
        raise ValueError(f"broadening must be positive, got {broadening}")
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
    # density is the sample mean of per-sample kernels phi_s (weights 1/n),
    # so se^2 = (n * sum(contrib^2) - density^2) / (n - 1).
    var = np.maximum(sumsq * n - density * density, 0.0) / max(n - 1, 1)
    return density, np.sqrt(var)


def spikes_to_histogram(
    samples,
    w_values: np.ndarray,
    broadening: float,
    metadata: dict | None = None,
) -> WorkHistogram:
    density, error = bin_spikes(samples, w_values, broadening)
    dw = float(w_values[1] - w_values[0])
    return WorkHistogram(
        w_values=np.asarray(w_values, dtype=float),
        density=density,
        error=error,
        bin_width=dw,
        broadening=float(broadening),
        total_mass=float(density.sum() * dw),
        metadata=metadata or {},
    )
