"""Free flight plus specular bounces under the unperturbed Hamiltonian.

H = |p|^2 with mass 1/2, so dq/dt = 2p: the speed along a ray is twice the
momentum magnitude, and |p| is conserved exactly across bounces.

``checkpoint_action_integrals`` is the engine: it advances a whole batch of
trajectories bounce by bounce (vectorized across particles) and records the
running integral of V at the checkpoint times of one or more requests in a
single pass, which is what the characteristic-function estimator consumes.
The scalar
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
    times,
    geom: BilliardGeometry,
    pot: QuenchPotential,
    max_bounces: int = MAX_BOUNCES_DEFAULT,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Integral of V from 0 to each checkpoint time, for a batch of particles.

    ``times`` lists one checkpoint array per request that shares these rays;
    each must be ascending and nonnegative.  The rays are traced once, to the
    latest checkpoint, and each request gets exactly the numbers a trace to
    its own last checkpoint would give (see below).  Returns (integrals,
    failed): integrals[k] has shape (n, len(times[k])), and failed[k] flags
    the particles that lost geometric containment or exceeded the bounce cap
    before request k's last checkpoint; their rows of integrals[k] are
    invalid and should be dropped by the caller.

    A trace computes its segment integrals in batched calls: per loop step,
    one over the rows still live and one over the checkpoints they cross.
    numpy computes a one-row ``(1, 4) @ (4,)`` product through a different
    BLAS kernel than a larger batch, so a row's value can round differently
    when it is alone in its call.  Each request therefore fills its
    checkpoints in calls over its own rows only, and once a single row
    remains on its way to a request's end, that request's running integral
    for the row continues in one-row calls, as a trace to that end would.
    """
    times = [np.asarray(t, dtype=float) for t in times]
    if not times:
        raise ValueError("need at least one checkpoint array")
    for t in times:
        if t.ndim != 1 or t.size == 0:
            raise ValueError("times must be nonempty 1D arrays")
        if np.any(np.diff(t) < 0.0) or t[0] < 0.0:
            raise ValueError("times must be ascending and nonnegative")
    n = qs.shape[0]
    ends = [float(t[-1]) for t in times]
    t_end = max(ends)

    outs = [np.zeros((n, t.size)) for t in times]
    failed = np.zeros((len(times), n), dtype=bool)

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
    bounces = np.zeros(n, dtype=np.int64)
    n_grazing = 0
    # Per request: the next checkpoint index.  A request that ends before the
    # shared trace also keeps the rows still on their way to its end and, once
    # one row is left, that row's running integral (see above).
    k_next = [np.searchsorted(t, 0.0, side="right") * np.ones(n, dtype=np.intp) for t in times]
    live = [None if end == t_end else np.full(n, end > 0.0) for end in ends]
    solo: list[np.ndarray | None] = [None] * len(times)

    if t_end == 0.0:
        return outs, failed

    while idx.size:
        t_hit, normals, _, ok, _ = geometry.first_hit_arrays(geom, pos, d)
        with np.errstate(divide="ignore", invalid="ignore"):
            t_wall = np.where(s > 0.0, t_hit / np.where(s > 0.0, s, 1.0), np.inf)
        bad = ~ok & (s > 0.0)

        # The shared trace runs to the latest end.
        remaining = t_end - elapsed
        finishing = t_wall >= remaining
        dur = np.where(finishing, remaining, t_wall)
        # A particle that lost the boundary would fly straight out; fail it.
        dur = np.where(bad, 0.0, dur)
        t_new = np.where(finishing, t_end, elapsed + dur)

        cst = potential.segment_constants(pot, pos, d, s)

        ending = [None] * len(times)  # per earlier-ending request: rows reaching it now
        for k, (t_k, end) in enumerate(zip(times, ends)):
            if live[k] is None:
                stop, t_stop = bad, t_new
            elif live[k].any():
                # Rows that do not reach this end fly the shared segment.
                rem = end - elapsed
                ending[k] = fin = t_wall >= rem
                stop, t_stop = bad | ~live[k], np.where(fin, end, t_new)
                if solo[k] is None and idx.size > 1 and np.count_nonzero(live[k]) == 1:
                    solo[k] = acc[live[k]]
            else:
                continue
            k_hi = np.where(stop, k_next[k], np.searchsorted(t_k, t_stop, side="right"))
            counts = k_hi - k_next[k]
            total = int(counts.sum())
            if total > 0:
                rows = np.repeat(np.arange(idx.size), counts)
                # Checkpoint indices per expanded row: start + within-group offset.
                offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
                kk = np.repeat(k_next[k], counts) + offsets
                rel = t_k[kk] - elapsed[rows]
                part = cst.select(rows).integral(rel)
                base = acc[rows] if solo[k] is None else np.repeat(solo[k], total)
                outs[k][idx[rows], kk] = base + part
            k_next[k] = k_hi
            if solo[k] is not None:
                row = np.flatnonzero(live[k])
                dur_k = np.where(bad[row], 0.0, np.where(fin[row], rem[row], t_wall[row]))
                solo[k] = solo[k] + cst.select(row).integral(dur_k)

        acc = acc + cst.integral(dur)
        pos = pos + d * (s * dur)[:, None]
        elapsed = t_new

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
        any_failed = newly_failed.any()
        for k, fin in enumerate(ending):
            if live[k] is None:
                if any_failed:
                    failed[k, idx[newly_failed]] = True
            elif fin is not None:
                if any_failed:
                    # A row that reached request k's end did not bounce in its trace.
                    lost = live[k] & (bad | (over & ~fin))
                    failed[k, idx[lost]] = True
                    fin = fin | lost
                live[k] &= ~fin

        done = finishing | newly_failed
        if done.any():
            keep = ~done
            idx = idx[keep]
            pos = pos[keep]
            d = d[keep]
            s = s[keep]
            elapsed = elapsed[keep]
            acc = acc[keep]
            bounces = bounces[keep]
            k_next = [k_n[keep] for k_n in k_next]
            live = [lv if lv is None else lv[keep] for lv in live]

    if n_grazing:
        logger.warning("%d grazing reflections encountered; reflected anyway", n_grazing)
    return outs, failed
