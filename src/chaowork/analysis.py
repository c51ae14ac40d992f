"""Cross-method comparisons and fluctuation-theorem estimators.

Free-energy estimates come either from raw work samples (classical route)
or from a characteristic grid (semiclassical route), where the histogram
average of exp(-beta W) is one linear functional of G, c . [Re G; Im G], that
the grid was estimated for.  All distribution distances are taken on a shared
W grid with shared broadening; no resampling between grids, which would be a
silent source of spurious distance.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from . import spectra as spectra_mod
from .characteristic import CharacteristicGrid, UGridPlan
from .sampler import SAMPLE_BLOCK
from .spectra import GridMismatch, WorkHistogram


# exp(x) overflows a double once x exceeds this.
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


class DegenerateMean(RuntimeError):
    """Nonpositive mean of exp(-beta W): impossible for real W, data corrupt."""


def _pairwise_sum(n: int, leaf) -> float:
    """numpy's pairwise sum of n terms, cut at leaves of at most SAMPLE_BLOCK
    terms: ``leaf(lo, hi)`` is ``np.add.reduce`` of terms lo to hi.  Above
    128 terms numpy splits at n2 = n // 2 - (n // 2) % 8 and adds the left
    half's sum to the right half's, so the leaves' sums, combined up the same
    tree onto 0.0, have the bits of ``np.add.reduce`` over all n terms."""

    def tree(lo: int, m: int) -> float:
        if m <= SAMPLE_BLOCK:
            return float(leaf(lo, lo + m))
        half = m // 2 - (m // 2) % 8
        return tree(lo, half) + tree(lo + half, m - half)

    return 0.0 + tree(0, n)


def jarzynski_from_samples(values, beta: float) -> tuple[float, float]:
    """Free-energy estimate -ln<exp(-beta W)>/beta with delta-method stderr.

    exp(-beta (W - min W)) is formed one leaf of ``_pairwise_sum`` at a time
    in a buffer of at most SAMPLE_BLOCK terms, and formed again for its
    squared deviations from their mean, so nothing of the sample's length is
    held beside W.  The mean and the standard deviation have the bits of
    numpy's ``mean`` and ``std(ddof=1)`` over the whole array of terms.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    if n == 0:
        raise ValueError("need at least one work sample")
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    # Shift by the minimum for overflow safety; the shift cancels in the log.
    shift = values.min()
    buf = np.empty(min(n, SAMPLE_BLOCK))

    def terms(lo: int, hi: int) -> np.ndarray:
        b = np.subtract(values[lo:hi], shift, out=buf[: hi - lo])
        b *= -beta
        return np.exp(b, out=b)

    mean = _pairwise_sum(n, lambda lo, hi: np.add.reduce(terms(lo, hi))) / n
    if mean <= 0.0:
        raise DegenerateMean(f"mean exp(-beta W) = {mean}")
    est = shift - math.log(mean) / beta
    if n > 1:
        # numpy's std: the squares of the deviations from the mean, summed.
        def squares(lo: int, hi: int) -> float:
            b = np.subtract(terms(lo, hi), mean, out=buf[: hi - lo])
            return np.add.reduce(np.square(b, out=b))

        se_mean = math.sqrt(_pairwise_sum(n, squares) / (n - 1)) / math.sqrt(n)
    else:
        se_mean = 0.0
    return est, se_mean / (beta * mean)


def jarzynski_functionals(plan: UGridPlan, betas, broadening: float) -> list[np.ndarray]:
    """For each beta, c with c . [Re G; Im G] = <exp(-beta (W - w0))> over
    ``spectra.invert``'s histogram of G at ``broadening``, w0 the plan's
    lowest W (``Request.functional``): one FFT of each beta's kernel."""
    w0 = plan.w_values.min()
    kernels = (np.exp(-beta * (plan.w_values - w0)) * plan.dw for beta in betas)
    return spectra_mod.functional_coefficients(plan, float(broadening), kernels)


def broadening_correction_overflows(beta: float, broadening: float) -> bool:
    """Whether exp((beta broadening)^2 / 2), the broadening correction of a
    free energy from an inverted histogram, overflows a double."""
    try:
        return 0.5 * (beta * broadening) ** 2 > _LOG_FLOAT_MAX
    except OverflowError:  # the square overflows first
        return True


def jarzynski_from_characteristic(
    g: CharacteristicGrid, beta: float, broadening: float
) -> tuple[float, float]:
    """Free-energy estimate from a grid estimated for ``jarzynski_functionals``.

    The histogram average is c . [Re G; Im G], with c = ``g.functional``
    and its error ``g.functional_stderr``; G is not inverted.  The
    broadening inflates <exp(-beta W)> by exp((beta eps)^2 / 2) exactly
    (Gaussian convolution), so that factor is divided out.  A grid without a
    functional or estimated at another beta, or a beta whose factor
    overflows, raises ValueError.
    """
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    if broadening_correction_overflows(beta, float(broadening)):
        raise ValueError(
            f"beta = {beta:g} with broadening = {broadening:g} is too cold for the broadening"
            f" correction: exp((beta broadening)^2 / 2) overflows (beta broadening ="
            f" {beta * broadening:.4g}); lower beta or broadening"
        )
    if g.functional is None:
        raise ValueError("the grid was estimated without a functional")
    if beta != g.beta:
        raise ValueError(f"the grid's functional is for beta = {g.beta}, not {beta}")
    spectra_mod.check_aliasing(g, broadening)
    raw = float(g.functional @ np.concatenate([g.g_values.real, g.g_values.imag]))
    if raw <= 0.0:
        raise DegenerateMean(f"histogram average of exp(-beta W) = {raw}")
    bias = math.exp(0.5 * (beta * float(broadening)) ** 2)
    mean = raw / bias
    est = g.plan.w_values.min() - math.log(mean) / beta
    return est, g.functional_stderr / bias / (beta * mean)


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
