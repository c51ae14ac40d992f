"""Free flight plus specular bounces under the unperturbed Hamiltonian.

H = |p|^2 with mass 1/2, so dq/dt = 2p: the speed along a ray is twice the
momentum magnitude, and |p| is conserved exactly across bounces.

``checkpoint_action_integrals`` is the engine: one compiled loop
(``_engine.c``, built and loaded by ``native``) that carries four rays in
lockstep, one per vector lane, and gives a lane the next ray as soon as
its own stops.  It reads one ascending array of checkpoint times.  Each
ray takes its direction and speed; per segment it finds the first wall
hit, fills every checkpoint up to the segment's end (the four lanes' fills
take their ``erf`` together, up to 64 fills per call), adds the segment's
integral of V to one running sum, then moves and reflects, with ``sqrt``
and ``hypot`` taken on several lanes at once with glibc's bits.  A ray's
results do not depend on which lane or batch it shares.  It stops at the
last checkpoint, when it loses the boundary or at the bounce cap, and the
checkpoints it did not reach stay NaN.  It also returns what the trace did, as ``TraceCounts``.  The
geometry is bit for bit that of the test oracle in ``tests/reference.py``:
``first_hit_arrays``, the numpy engine built on it and the scalar
one-trajectory path (``propagate``, ``action_difference``); the integrals
agree with that engine to rounding.
"""

from __future__ import annotations

import ctypes
import logging
import operator
from typing import NamedTuple

import numpy as np

from . import geometry, native, potential
from .geometry import BilliardGeometry
from .potential import QuenchPotential

logger = logging.getLogger(__name__)

MAX_BOUNCES_DEFAULT = 10_000_000

_INT64_MAX = 2**63 - 1


class TraceCounts(NamedTuple):
    """What a trace did: per-ray flights and reflections, and event totals."""

    segments: np.ndarray  # (n,) int64
    bounces: np.ndarray  # (n,) int64
    grazing: int
    corner: int


def _phase_points(qs, ps) -> tuple[np.ndarray, np.ndarray]:
    qs = np.ascontiguousarray(qs, dtype=float)
    ps = np.ascontiguousarray(ps, dtype=float)
    for name, a in (("qs", qs), ("ps", ps)):
        if a.ndim != 2 or a.shape[1] != 2:
            raise ValueError(f"{name} must be an (n, 2) array, got shape {a.shape}")
    if qs.shape[0] != ps.shape[0]:
        raise ValueError(f"qs and ps differ in length: {qs.shape[0]} != {ps.shape[0]}")
    return qs, ps


def _bounce_cap(max_bounces) -> int:
    try:
        cap = operator.index(max_bounces)
    except TypeError:
        raise ValueError(f"max_bounces must be an integer, got {max_bounces!r}") from None
    if not 0 <= cap <= _INT64_MAX:
        raise ValueError(f"max_bounces must be in [0, 2^63 - 1], got {cap}")
    return cap


def _checkpoints(times) -> np.ndarray:
    times = np.ascontiguousarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a nonempty 1D array")
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    if np.any(np.diff(times) < 0.0) or times[0] < 0.0:
        raise ValueError("times must be ascending and nonnegative")
    return times


def checkpoint_action_integrals(
    qs: np.ndarray,
    ps: np.ndarray,
    times: np.ndarray,
    geom: BilliardGeometry,
    pot: QuenchPotential,
    max_bounces: int = MAX_BOUNCES_DEFAULT,
) -> tuple[np.ndarray, np.ndarray, TraceCounts]:
    """Integral of V from 0 to each checkpoint time, for a batch of particles.

    ``qs`` and ``ps`` are (n, 2) positions and momenta; ``times`` is one
    finite, ascending, nonnegative array of checkpoints.  Each ray is traced
    once, to the last checkpoint, keeping one running integral that every
    checkpoint reads on the segment that reaches it.  Returns (integrals,
    failed, counts): integrals has shape (n, len(times)), failed flags the
    rays that lost geometric containment or exceeded ``max_bounces``
    reflections before the last checkpoint, and counts is the trace's
    ``TraceCounts``.  A failed ray stopped there, so the checkpoints it did
    not reach read NaN: a caller that reads only up to an earlier checkpoint
    keeps the rows that are finite there.  Malformed arguments raise
    ValueError before the engine runs.
    """
    qs, ps = _phase_points(qs, ps)
    cap = _bounce_cap(max_bounces)
    times = _checkpoints(times)
    n = qs.shape[0]

    out = np.full((n, times.size), np.nan)
    segments = np.zeros(n, dtype=np.int64)
    bounces = np.zeros(n, dtype=np.int64)
    events = np.zeros(2, dtype=np.int64)
    walls = native.Walls(
        r=geom.r,
        l=geom.l,
        tol_geom=geometry.TOL_GEOM,
        tol_grazing=geometry.TOL_GRAZING,
        wall_nudge=geometry.WALL_NUDGE,
    )
    status = native.load().trace(
        ctypes.byref(walls),
        ctypes.byref(potential.bumps(pot)),
        n,
        native.pointer(qs),
        native.pointer(ps),
        times.size,
        native.pointer(times),
        cap,
        native.pointer(out),
        native.pointer(segments, ctypes.c_int64),
        native.pointer(bounces, ctypes.c_int64),
        native.pointer(events, ctypes.c_int64),
    )
    if status != 0:
        raise MemoryError("the engine could not allocate its working memory")
    counts = TraceCounts(segments, bounces, int(events[0]), int(events[1]))
    if counts.grazing:
        logger.warning("%d grazing reflections encountered; reflected anyway", counts.grazing)
    return out, np.isnan(out[:, -1]), counts
