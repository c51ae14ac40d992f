"""Free flight plus specular bounces under the unperturbed Hamiltonian.

H = |p|^2 with mass 1/2, so dq/dt = 2p: the speed along a ray is twice the
momentum magnitude, and |p| is conserved exactly across bounces.

``checkpoint_action_integrals`` is the engine: it advances a whole batch of
trajectories bounce by bounce (vectorized across particles) and records the
running integral of V at a shared grid of checkpoint times in a single pass,
which is what the characteristic-function estimator consumes.  The scalar
one-trajectory reference path it is checked against (``propagate``,
``action_difference``) lives in ``tests/reference.py``.
"""

from __future__ import annotations

import logging

import numpy as np

from . import geometry, potential
from .geometry import BilliardGeometry, WALL_NUDGE
from .potential import QuenchPotential

logger = logging.getLogger(__name__)

MAX_BOUNCES_DEFAULT = 10_000_000


def checkpoint_action_integrals(
    qs: np.ndarray,
    ps: np.ndarray,
    times: np.ndarray,
    geom: BilliardGeometry,
    pot: QuenchPotential,
    max_bounces: int = MAX_BOUNCES_DEFAULT,
) -> tuple[np.ndarray, np.ndarray]:
    """Integral of V from 0 to each checkpoint time, for a batch of particles.

    ``times`` must be ascending and nonnegative.  Returns (integrals, failed)
    where integrals has shape (n, len(times)) and failed flags particles that
    lost geometric containment or exceeded the bounce cap; their rows are
    invalid and should be dropped by the caller.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a nonempty 1D array")
    if np.any(np.diff(times) < 0.0) or times[0] < 0.0:
        raise ValueError("times must be ascending and nonnegative")
    n = qs.shape[0]
    n_times = times.size
    t_end = float(times[-1])

    out = np.zeros((n, n_times))
    failed = np.zeros(n, dtype=bool)

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
    k_next = np.searchsorted(times, 0.0, side="right") * np.ones(n, dtype=np.intp)
    bounces = np.zeros(n, dtype=np.int64)
    n_grazing = 0

    if t_end == 0.0:
        return out, failed

    while idx.size:
        t_hit, normals, _, ok, _ = geometry.first_hit_arrays(geom, pos, d)
        with np.errstate(divide="ignore", invalid="ignore"):
            t_wall = np.where(s > 0.0, t_hit / np.where(s > 0.0, s, 1.0), np.inf)
        bad = ~ok & (s > 0.0)

        remaining = t_end - elapsed
        finishing = t_wall >= remaining
        dur = np.where(finishing, remaining, t_wall)
        # A particle that lost the boundary would fly straight out; fail it.
        dur = np.where(bad, 0.0, dur)

        cst = potential.segment_constants(pot, pos, d, s)

        t_new = np.where(finishing, t_end, elapsed + dur)
        k_hi = np.searchsorted(times, t_new, side="right")
        k_hi = np.where(bad, k_next, k_hi)
        counts = k_hi - k_next
        total = int(counts.sum())
        if total > 0:
            rows = np.repeat(np.arange(idx.size), counts)
            # Checkpoint indices per expanded row: start + within-group offset.
            offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
            kk = np.repeat(k_next, counts) + offsets
            rel = times[kk] - elapsed[rows]
            part = cst.select(rows).integral(rel)
            out[idx[rows], kk] = acc[rows] + part

        acc = acc + cst.integral(dur)
        pos = pos + d * (s * dur)[:, None]
        elapsed = t_new
        k_next = k_hi

        bounce = ~finishing & ~bad
        if bounce.any():
            nn = normals[bounce]
            dd = d[bounce]
            dn = (dd * nn).sum(axis=1)
            grz = int((np.abs(dn) < geometry.TOL_GRAZING).sum())
            n_grazing += grz
            dd = dd - 2.0 * dn[:, None] * nn
            norm = np.hypot(dd[:, 0], dd[:, 1])
            dd /= norm[:, None]
            d[bounce] = dd
            pos[bounce] += WALL_NUDGE * nn
            bounces[bounce] += 1

        over = bounces > max_bounces
        newly_failed = bad | over
        if newly_failed.any():
            failed[idx[newly_failed]] = True

        done = finishing | newly_failed
        if done.any():
            keep = ~done
            idx = idx[keep]
            pos = pos[keep]
            d = d[keep]
            s = s[keep]
            elapsed = elapsed[keep]
            acc = acc[keep]
            k_next = k_next[keep]
            bounces = bounces[keep]

    if n_grazing:
        logger.warning("%d grazing reflections encountered; reflected anyway", n_grazing)
    return out, failed
