"""Cross-method comparisons and fluctuation-theorem estimators.

Free-energy estimates come either from raw work samples (classical route)
or from an inverted characteristic grid (semiclassical route, where the work
variable only exists after Fourier inversion).  All distribution distances
are taken on a shared W grid with shared broadening; no resampling between
grids, which would be a silent source of spurious distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from . import spectra as spectra_mod
from .characteristic import CharacteristicGrid
from .spectra import GridMismatch, WorkHistogram


class DegenerateMean(RuntimeError):
    """Nonpositive mean of exp(-beta W): impossible for real W, data corrupt."""


@dataclass(frozen=True)
class JarzynskiReport:
    beta: float
    delta_f_estimate: float
    delta_f_reference: float
    stderr: float
    method: Literal["semiclassical", "classical_mc", "quantum"]

    @property
    def deviation(self) -> float:
        return abs(self.delta_f_estimate - self.delta_f_reference)


def jarzynski_from_samples(values, beta: float) -> tuple[float, float]:
    """Free-energy estimate -ln<exp(-beta W)>/beta with delta-method stderr."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("need at least one work sample")
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    # Shift by the minimum for overflow safety; the shift cancels in the log.
    shift = values.min()
    expw = np.exp(-beta * (values - shift))
    mean = float(expw.mean())
    if mean <= 0.0:
        raise DegenerateMean(f"mean exp(-beta W) = {mean}")
    est = shift - math.log(mean) / beta
    if values.size > 1:
        se_mean = float(expw.std(ddof=1)) / math.sqrt(values.size)
    else:
        se_mean = 0.0
    return est, se_mean / (beta * mean)


def jarzynski_from_characteristic(
    g: CharacteristicGrid | WorkHistogram,
    beta: float,
    broadening: float | None = None,
) -> tuple[float, float]:
    """Free-energy estimate from the inverted work histogram.

    Accepts either a characteristic grid (inverted here with the default
    broadening) or an existing histogram.  The broadening inflates
    <exp(-beta W)> by exp((beta eps)^2 / 2) exactly (Gaussian convolution),
    so that factor is divided out.

    The histogram sum is a linear functional of G, so when the grid carries
    phase second moments the standard error is propagated through the exact
    covariance; otherwise grid points (or bins) are treated as independent,
    which overstates the error.
    """
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    if isinstance(g, WorkHistogram):
        hist, cov = g, None
    else:
        hist = spectra_mod.invert(g, broadening=broadening)
        cov = g.quadrature_covariance()
    w = hist.w_values
    w0 = w.min()
    kernel = np.exp(-beta * (w - w0)) * hist.bin_width
    raw = float((kernel * hist.density).sum())
    if raw <= 0.0:
        raise DegenerateMean(f"histogram average of exp(-beta W) = {raw}")
    bias = math.exp(0.5 * (beta * hist.broadening) ** 2)
    mean = raw / bias
    est = w0 - math.log(mean) / beta

    if cov is not None:
        # raw = c . [Re G; Im G] exactly: assemble the coefficients of the
        # inversion followed by the kernel sum.
        u = np.asarray(g.u_values, dtype=float)
        du = float(u[1] - u[0])
        damp = np.exp(-0.5 * (hist.broadening * u) ** 2)
        scale = du / (2.0 * math.pi)
        phase = np.outer(u, w)
        c_re = scale * damp * (np.cos(phase) @ kernel)
        c_im = scale * damp * (np.sin(phase) @ kernel)
        c_re[1:] *= 2.0
        c_im[1:] *= 2.0
        coeff = np.concatenate([c_re, c_im])
        var_raw = float(coeff @ cov @ coeff)
        se = math.sqrt(max(var_raw, 0.0)) / bias / (beta * mean)
        return est, se

    var = float(((kernel * hist.error) ** 2).sum()) / bias**2
    return est, math.sqrt(var) / (beta * mean)


def l1_distance(a: WorkHistogram, b: WorkHistogram) -> float:
    """Integrated absolute density difference; a metric in [0, 2]."""
    if not a.same_grid(b):
        raise GridMismatch("histograms must share the W grid and broadening")
    return float(np.abs(a.density - b.density).sum() * a.bin_width)


def l1_distance_error(a: WorkHistogram, b: WorkHistogram) -> float:
    """1-sigma statistical error of l1_distance, bins treated independent."""
    if not a.same_grid(b):
        raise GridMismatch("histograms must share the W grid and broadening")
    var = ((a.error**2 + b.error**2) * a.bin_width**2).sum()
    return float(math.sqrt(var))


def compare_histograms(a: WorkHistogram, b: WorkHistogram) -> dict:
    d = l1_distance(a, b)
    err = l1_distance_error(a, b)
    return {
        "l1": d,
        "l1_error": err,
        "mean_a": a.mean(),
        "mean_b": b.mean(),
        "mass_a": a.total_mass,
        "mass_b": b.total_mass,
    }
