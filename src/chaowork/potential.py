"""Quench perturbation: four signed Gaussian bumps.

``evaluate`` returns the unit-amplitude signed sum V(q); the full
perturbation is xi * V(q), and the energy jump of a sudden quench is
(xi_f - xi_0) * V(q).  ``segment_constants(...).integral`` integrates V
along a batch of straight constant-speed flights in closed form (1D
error-function integral times the transverse Gaussian factor), which is both
exact and fast.  The closed form is one routine of the compiled engine
(``_engine.c``), which the engine calls for every segment and checkpoint:
glibc ``exp`` and ``erf`` and a left fold over the bumps.  ``bumps``
hands the potential to that code.  The test oracle is ``tests/reference.py``:
the scalar ``segment_integral``, the composite Simpson rule it is checked
against and the numpy closed form of the numpy engine.  Only tests call
``segment_constants``; it stays here because ``benchmarks/tracer.py``
wraps ``_SegmentConstants.integral`` by name.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field

import numpy as np

from . import native

DEFAULT_CENTERS = ((0.2, 0.4), (0.67, 0.5), (0.5, 0.15), (0.3, 0.75))
DEFAULT_SIGNS = (1.0, -1.0, 1.0, -1.0)


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
        object.__setattr__(self, "centers", np.ascontiguousarray(self.centers, dtype=float))
        object.__setattr__(self, "signs", np.ascontiguousarray(self.signs, dtype=float))
        if self.centers.ndim != 2 or self.centers.shape[1] != 2:
            raise ValueError("centers must be an (n, 2) array")
        if self.signs.shape != (self.centers.shape[0],):
            raise ValueError("signs must match the number of centers")
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")

    @property
    def delta_xi(self) -> float:
        return self.xi_f - self.xi_0


_BLOCK_ROWS = 65536


def evaluate(pot: QuenchPotential, q) -> float | np.ndarray:
    """Unit-amplitude signed Gaussian sum V(q); accepts (..., 2) arrays.

    Points are taken _BLOCK_ROWS at a time into one output array, so the
    (rows, bumps) temporaries stay a few MB whatever the number of points.
    Each row's value does not depend on the block it is in, except that a
    block of one row takes another summation order in ``@``; so no block
    of one row is ever cut off a larger array.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim == 1:
        return float(_bump_sum(pot, q))
    rows = q.reshape(-1, q.shape[-1])
    n = rows.shape[0]
    out = np.empty(n)
    lo = 0
    for hi in [*range(_BLOCK_ROWS, n - 1, _BLOCK_ROWS), n]:
        out[lo:hi] = _bump_sum(pot, rows[lo:hi])
        lo = hi
    return out.reshape(q.shape[:-1])


def _bump_sum(pot: QuenchPotential, q: np.ndarray):
    """V at one point (2,) or at each row of an (n, 2) block."""
    dx = q[..., None, 0] - pot.centers[:, 0]
    dy = q[..., None, 1] - pot.centers[:, 1]
    inv = 1.0 / (2.0 * pot.sigma * pot.sigma)
    arg = (dx * dx + dy * dy) * inv
    return np.exp(-arg) @ pot.signs


class _SegmentConstants:
    """A batch of straight constant-speed flights, one per row.

    A flight is q(tau) = q0 + d * s * tau for tau >= 0.  For bump i the
    integrand is exp(-|q(tau) - c_i|^2 / (2 sigma^2)) =
    amp_i * exp(-(s (tau - tau_star_i))^2 / (2 sigma^2)), whose integral is
    an error-function difference; a stationary flight (s = 0) integrates to
    V(q0) * T.  ``integral`` evaluates this through the compiled engine's
    own set-up and total, four flights at a time, so its value is bit for
    bit what the engine adds for the same flight.
    """

    __slots__ = ("pot", "q0", "direction", "speed")

    def __init__(self, pot: QuenchPotential, q0, direction, speed):
        q0 = np.atleast_2d(np.asarray(q0, dtype=float))
        if q0.ndim != 2 or q0.shape[1] != 2:
            raise ValueError(f"flight origins must be (n, 2), got shape {q0.shape}")
        n = q0.shape[0]
        self.pot = pot
        self.q0 = np.ascontiguousarray(q0)
        self.direction = np.ascontiguousarray(np.broadcast_to(direction, (n, 2)), dtype=float)
        self.speed = np.ascontiguousarray(np.broadcast_to(speed, (n,)), dtype=float)

    def integral(self, duration) -> np.ndarray:
        """Integral of V over [0, duration] for each row; duration is (n,)."""
        n = self.q0.shape[0]
        duration = np.ascontiguousarray(np.broadcast_to(duration, (n,)), dtype=float)
        out = np.empty(n)
        status = native.load().segment_integrals(
            ctypes.byref(bumps(self.pot)),
            n,
            native.pointer(self.q0),
            native.pointer(self.direction),
            native.pointer(self.speed),
            native.pointer(duration),
            native.pointer(out),
        )
        if status != 0:
            raise MemoryError("segment_integrals could not allocate its working memory")
        return out


def segment_constants(pot, q0s, directions, speeds) -> _SegmentConstants:
    """Batch of flights whose V integrals ``.integral(durations)`` gives."""
    return _SegmentConstants(pot, q0s, directions, speeds)


def bumps(pot: QuenchPotential) -> native.Bumps:
    """The potential as the compiled engine reads it; ``pot`` must outlive it."""
    return native.Bumps(
        sigma=pot.sigma,
        n=pot.centers.shape[0],
        centers=native.pointer(pot.centers),
        signs=native.pointer(pot.signs),
    )
