"""Fourier inversion: characteristic grids to work histograms.

Every histogram lives on the W grid its u plan owns (``UGridPlan.w_values``),
the exact discrete dual of the one-sided u grid: M points u_k = k du (G on
negative u is the conjugate, so it is not stored) map to N = 2M - 1 bins of
width dw = 2 pi / (N du) centered on the planner's window center.  With that
pairing the discrete transforms invert each other exactly, the total mass
equals G(0), and Gaussian broadening (multiplying G by exp(-eps^2 u^2 / 2),
i.e. convolving P with a Gaussian of width eps) preserves the mass bin for
bin.  The dual grid is the length-N DFT grid shifted to the window center,
so ``invert`` takes P(W) and its error, and ``functional_coefficients`` the
coefficients of a linear functional of P, each from length-N FFTs.
Monte Carlo samples are binned on the same bins by ``bin_spikes``.

A histogram's errors treat the u points as independent; a free energy is
c . G for the c of ``functional_coefficients``, with that functional's error.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .characteristic import CharacteristicGrid, UGridPlan
from .sampler import SAMPLE_BLOCK

logger = logging.getLogger(__name__)

ALIAS_TOLERANCE = 0.01
# bin_spikes' recurrence takes a fresh exp pair every this many bin offsets,
# so its rounding drift stays bounded however wide the kernel; a kernel of
# up to 17 offsets each way (broadening_bins = 2) is never restarted.
RESTART_OFFSETS = 32


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

    def mean(self) -> float:
        return float((self.w_values * self.density).sum() * self.bin_width)

    def same_grid(self, other: "WorkHistogram") -> bool:
        return (
            self.w_values.shape == other.w_values.shape
            and np.array_equal(self.w_values, other.w_values)
            and self.broadening == other.broadening
        )


def _dual(plan: UGridPlan, a: np.ndarray) -> np.ndarray:
    """sum_k a_k exp(-i u_k w_j) on every bin j of the plan's W grid, for
    a_k on u_k = k du, k < 2n - 1: with w_j = w_center + (j - (n - 1)) dw,
    u_k w_j = k du w_center + 2 pi k (j - (n - 1)) / (2n - 1), one FFT."""
    x = a * np.exp(-1j * (np.arange(a.size) * plan.du) * plan.w_center)
    return np.roll(np.fft.fft(x, 2 * plan.n - 1), plan.n - 1)


def check_aliasing(g: CharacteristicGrid, broadening: float) -> tuple[float, float]:
    """(|G(u_max)|, its broadened value); AliasingSuspect when the latter
    exceeds ALIAS_TOLERANCE, as the work window is then too narrow."""
    eps = float(broadening)
    if eps < 0.0:
        raise ValueError("broadening must be nonnegative")
    tail_raw = abs(g.g_values[-1])
    tail = abs(g.g_values[-1] * g.plan.kernel(eps, -1))
    if tail_raw > ALIAS_TOLERANCE:
        logger.debug(
            "raw |G(u_max)| = %.3f (a work atom keeps it finite; the broadened "
            "tail is what matters for aliasing)",
            tail_raw,
        )
    if tail > ALIAS_TOLERANCE:
        raise AliasingSuspect(
            f"|G(u_max)| = {tail:.3g} after broadening; widen the work window"
        )
    return tail_raw, tail


def invert(g: CharacteristicGrid, broadening: float) -> WorkHistogram:
    """Discrete inverse transform of G(u) onto its plan's W grid.

    ``broadening`` is the Gaussian smoothing width eps; eps = 0 disables
    smoothing.  Raises AliasingSuspect when the broadened G still carries
    weight above ALIAS_TOLERANCE at u_max (``check_aliasing``).
    """
    vals, se_re, se_im = g.g_values, g.stderr_re, g.stderr_im
    eps = float(broadening)
    tail_raw, tail = check_aliasing(g, eps)
    plan = g.plan
    b = plan.kernel(eps)
    scale = plan.du / (2.0 * math.pi)
    gb = vals * b

    # P(w_j) = scale [b_0 Re G_0 + 2 sum_{k >= 1} b_k (Re G_k cos(u_k w_j) + Im G_k sin(u_k w_j))]
    # is the real part of the dual of (gb_0, 2 gb_1, 2 gb_2, ...).
    density = scale * _dual(plan, np.concatenate([gb[:1], 2.0 * gb[1:]])).real

    # Its variance takes A_k cos^2 + B_k sin^2 = (A_k + B_k) / 2 + (A_k - B_k) cos(2 u_k w_j) / 2,
    # A_k = (b_k se_re_k)^2 and B_k = (b_k se_im_k)^2: the cos(2 u_k w_j) terms are the
    # dual at index 2k <= 2n - 2, which the length-(2n - 1) grid holds without wrapping.
    sq_re, sq_im = (se_re[1:] * b[1:]) ** 2, (se_im[1:] * b[1:]) ** 2
    twice = np.zeros(2 * plan.n - 1)
    twice[2::2] = sq_re - sq_im
    var = (se_re[0] * b[0]) ** 2 + 2.0 * (sq_re.sum() + sq_im.sum()) + 2.0 * _dual(plan, twice).real
    error = scale * np.sqrt(np.maximum(var, 0.0))

    total_mass = float(density.sum() * g.plan.dw)
    scale_ref = max(abs(gb[0].real), 1e-300)
    residue = abs(gb[0].imag) / scale_ref
    return WorkHistogram(
        w_values=g.plan.w_values,
        density=density,
        error=error,
        bin_width=g.plan.dw,
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


def functional_coefficients(plan: UGridPlan, broadening: float, kernels) -> list[np.ndarray]:
    """For each kernel, c with sum_j kernel_j P(w_j) = c . [Re G; Im G]
    exactly, P being ``invert``'s histogram of G on ``plan`` at Gaussian
    width ``broadening``: the kernel's sums over j of cos(u_k w_j) and
    sin(u_k w_j), the conjugate FFT of the kernel rolled to start at the
    window center, times invert's weights."""
    u = plan.u_values
    weight = plan.du / (2.0 * math.pi) * plan.kernel(broadening)
    weight[1:] *= 2.0
    center = np.exp(1j * u * plan.w_center)
    sums = (center * np.fft.fft(np.roll(k, 1 - plan.n))[: plan.n].conj() for k in kernels)
    return [np.concatenate([weight * s.real, weight * s.imag]) for s in sums]


def bin_spikes(
    samples, plan: UGridPlan, broadening: float, metadata: dict | None = None
) -> WorkHistogram:
    """Gaussian-broadened histogram of Monte Carlo samples on the plan's W grid.

    Each of the n samples carries weight 1/n and contributes
    N(w; sample, eps)/n at the bin centers, truncated beyond 8 eps;
    eps = ``broadening`` must be positive.  The bins are the plan's, of width
    ``plan.dw``, and each carries its standard error.  Weighted point masses
    (an exact spectrum) take the other route: their characteristic function
    through ``invert``.

    The Gaussians are gridded fast (Greengard & Lee, SIAM Review 2004),
    ``SAMPLE_BLOCK`` samples at a time, so that every temporary has block
    length.  Each sample takes four exp: its Gaussian at the two nearest
    bins and, in each direction away from it, the ratio of the next bin's
    Gaussian to that bin's.  Moving on by one bin multiplies the Gaussian by
    the ratio and the ratio by exp(-d^2), d = dw / eps; every ratio is at
    most 1, so nothing overflows at any eps.  Every RESTART_OFFSETS offsets
    the pair is taken afresh, so rounding does not build up.  A block takes
    only the bin offsets that reach a bin of the window for one of its
    samples, and starts the recurrence at the first of them: a block whose
    samples span m bins takes at most m plus the window's bins, however
    wide the kernel.
    A kernel that fits inside the window is summed as it would be over
    every offset, as those that reach no bin of the window add nothing.
    """
    samples = np.asarray(samples, dtype=float).ravel()
    n = samples.size
    w_values = plan.w_values
    n_bins = w_values.size
    dw = plan.dw
    eps = float(broadening)
    if not eps > 0.0:
        raise ValueError(f"broadening must be positive, got {broadening}")
    if n == 0:
        raise ValueError("need at least one sample")
    density = np.zeros(n_bins)
    sumsq = np.zeros(n_bins)
    halfwidth = int(math.ceil(8.0 * eps / dw))
    d = dw / eps
    step = math.exp(-d * d)
    weight = (1.0 / n) / (eps * math.sqrt(2.0 * math.pi))
    # A sample in bin b (b = floor((w - w_0) / dw)) feeds bins b - halfwidth
    # through b + halfwidth + 1; the bincounts index it by b + halfwidth + 1.
    length = n_bins + 2 * halfwidth + 1
    for lo in range(0, n, SAMPLE_BLOCK):
        s = samples[lo : lo + SAMPLE_BLOCK]
        base = np.floor((s - w_values[0]) / dw)
        near = (base >= -halfwidth - 1) & (base < n_bins + halfwidth)
        if not near.all():
            s, base = s[near], base[near]
        if not s.size:
            continue
        at = (base + (halfwidth + 1)).astype(np.intp)
        sq = np.empty(s.size)
        # Offsets off whose bin b + off is in the window for some sample.
        reach_lo, reach_hi = -int(base.max()), n_bins - 1 - int(base.min())
        # Bins b, b - 1, ... with the ratio leftward; b + 1, b + 2, ... rightward.
        for first, last, toward in ((0, -halfwidth, -1), (1, halfwidth + 1, 1)):
            lo_off = max(min(first, last), reach_lo)
            hi_off = min(max(first, last), reach_hi)
            if lo_off > hi_off:
                continue
            # The recurrence starts at the first offset that reaches the window.
            start, stop = (lo_off, hi_off) if toward > 0 else (hi_off, lo_off)
            for off in range(start, stop + toward, toward):
                if (off - start) % RESTART_OFFSETS:
                    g *= ratio
                    ratio *= step
                else:
                    # The bin's center by the formula of plan.w_values.
                    z = (plan.w_center + (base + (off - (plan.n - 1))) * dw - s) / eps
                    g = np.exp(-0.5 * z * z)
                    g *= weight
                    ratio = np.exp(-toward * d * z - 0.5 * d * d)
                skip = halfwidth + 1 - off
                density += np.bincount(at, g, length)[skip : skip + n_bins]
                np.multiply(g, g, out=sq)
                sumsq += np.bincount(at, sq, length)[skip : skip + n_bins]
    # density is the sample mean of per-sample kernels phi_s (weights 1/n),
    # so se^2 = (n * sum(contrib^2) - density^2) / (n - 1).
    var = np.maximum(sumsq * n - density * density, 0.0) / max(n - 1, 1)
    total_mass = float(density.sum() * dw)
    return WorkHistogram(
        w_values, density, np.sqrt(var), dw, eps, total_mass, metadata=metadata or {}
    )
