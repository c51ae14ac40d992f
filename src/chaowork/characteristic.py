"""Semiclassical characteristic function of the quench work.

The estimator averages unit-modulus phases exp(i * dS(x0, u*hbar) / hbar)
over Boltzmann-drawn initial conditions, where dS is the time integral of
the energy jump along the unperturbed trajectory.  Each sample is propagated
once to the largest checkpoint time with the running integral recorded at
every u-grid time, so the cost is one trajectory per sample rather than one
per (sample, u) pair.

``semiclassical_characteristic`` takes a list of requests (ensemble, u grid,
hbar) and traces each ray once for all requests that share it: ensembles
with equal positions and momenta an exact power of two apart, which is what
``sample_ensemble`` gives for one (seed, n) at temperatures 4^k apart.
Free flight is scale-invariant, so a request at momentum c * p reads the
trace at p at times c * u * hbar and divides by c; with c a power of two
every step of that arithmetic is exact.  Each request gets the same numbers
as a call with that request alone.

Reduction runs over fixed-size chunks in a fixed order, so results are
bit-identical for any worker count.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import sampler, trajectory
from .geometry import BilliardGeometry
from .potential import QuenchPotential, evaluate
from .sampler import ThermalEnsemble
from .trajectory import MAX_BOUNCES_DEFAULT

CHUNK_SIZE = 8192
PILOT_SAMPLES = 4096
FAILURE_BUDGET = 1e-3


class ExcessiveFailures(RuntimeError):
    """More than the failure budget of samples errored; the average is biased."""


@dataclass(frozen=True)
class UGridPlan:
    """Uniform one-sided u grid plus the center of the dual work window."""

    u_values: np.ndarray
    w_center: float

    @property
    def du(self) -> float:
        return float(self.u_values[1] - self.u_values[0])

    @property
    def n_onesided(self) -> int:
        return self.u_values.size


@dataclass
class CharacteristicGrid:
    """Sampled complex G(u) with per-point statistical error.

    stderr_re / stderr_im are standard errors of the real and imaginary
    quadratures; deterministic producers (the quantum oracle) store zeros.
    """

    u_values: np.ndarray
    g_values: np.ndarray
    stderr_re: np.ndarray
    stderr_im: np.ndarray
    n_samples: int
    hbar: float
    beta: float
    w_center: float = 0.0
    n_failed: int = 0
    metadata: dict = field(default_factory=dict)
    # Optional raw second-moment matrix of the per-sample [cos; sin] phase
    # vector over the distinct |u| times, for exact error propagation through
    # any linear functional of G (see quadrature_covariance).
    second_moment: np.ndarray | None = None

    @property
    def stderr(self) -> np.ndarray:
        return np.hypot(self.stderr_re, self.stderr_im)

    def quadrature_covariance(self) -> np.ndarray | None:
        """Covariance of the stacked estimator mean [Re G; Im G].

        Available only when the estimator collected second moments on a
        one-sided grid; lets callers propagate errors exactly through any
        linear functional of G instead of assuming independent points.
        """
        if self.second_moment is None:
            return None
        n = self.n_samples
        m = self.second_moment
        k = m.shape[0] // 2
        mu = np.concatenate([self.g_values.real[:k], self.g_values.imag[:k]])
        cov = (m / n - np.outer(mu, mu)) * (n / max(n - 1, 1))
        return cov / n


def plan_u_grid(
    geom: BilliardGeometry,
    pot: QuenchPotential,
    seed: int,
    n_u: int = 512,
    pilot_n: int = PILOT_SAMPLES,
    pad_frac: float = 0.2,
) -> UGridPlan:
    """u grid from Fourier duality against a pilot sample of the work values.

    A pilot of uniform positions gives the support of W = (xi_f - xi_0) V(q);
    the window is padded by ``pad_frac`` of the raw span on each side and
    du = 2 pi / span.  n_u one-sided points (a power of two by convention).
    """
    rng = sampler.block_generator(seed, sampler.STREAM_PILOT, 0)
    qs = sampler.sample_positions(geom, rng, pilot_n)
    w = pot.delta_xi * evaluate(pot, qs)
    lo = float(w.min())
    hi = float(w.max())
    if hi - lo <= 0.0:
        lo, hi = lo - 1.0, hi + 1.0
    return plan_from_window(lo, hi, n_u, pad_frac=pad_frac)


def plan_from_window(
    w_lo: float, w_hi: float, n_u: int = 512, pad_frac: float = 0.0
) -> UGridPlan:
    """u grid dual to an explicit work window [w_lo, w_hi]."""
    if not w_hi > w_lo:
        raise ValueError("need w_hi > w_lo")
    pad = pad_frac * (w_hi - w_lo)
    lo, hi = w_lo - pad, w_hi + pad
    du = 2.0 * math.pi / (hi - lo)
    u = np.arange(n_u) * du
    return UGridPlan(u_values=u, w_center=0.5 * (lo + hi))


def _resolve_grid(u_grid) -> tuple[np.ndarray, float]:
    if isinstance(u_grid, UGridPlan):
        return np.asarray(u_grid.u_values, dtype=float), u_grid.w_center
    return np.asarray(u_grid, dtype=float), 0.0


def _phase_times(u: np.ndarray, hbar: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Checkpoint times for |u| plus the map from grid entries to them."""
    if u.ndim != 1 or u.size == 0:
        raise ValueError("u grid must be a nonempty 1D array")
    du = np.diff(u)
    if u.size > 1 and not np.allclose(du, du[0], rtol=0.0, atol=1e-12 * abs(du[0])):
        raise ValueError("u grid must be uniform")
    if not np.any(u == 0.0):
        raise ValueError("u grid must contain u = 0")
    mags = np.abs(u)
    uniq, inverse = np.unique(mags, return_inverse=True)
    return uniq * hbar, inverse, np.sign(u)


@dataclass(frozen=True)
class Request:
    """One G(u) to estimate: an ensemble, a u grid or plan, hbar, covariance flag.

    ``collect_covariance`` additionally accumulates the second-moment matrix
    of the per-sample phase vector (quadratic in the grid size; needs a
    one-sided grid) for exact downstream error bars.
    """

    ensemble: ThermalEnsemble
    u_grid: UGridPlan | np.ndarray
    hbar: float
    collect_covariance: bool = False


def _request_sums(integrals, failed, scale, coef, want_cov):
    """Phase sums of one request over its good rows in a traced chunk.

    The request's own integrals are the traced ones divided by ``scale``.
    """
    good = ~failed
    phases = integrals[good]
    if scale != 1.0:
        phases /= scale
    phases *= coef
    c = np.cos(phases)
    s = np.sin(phases)
    if want_cov:
        v = np.concatenate([c, s], axis=1)
        moment = v.T @ v
    else:
        moment = None
    return (
        c.sum(axis=0),
        s.sum(axis=0),
        (c * c).sum(axis=0),
        (s * s).sum(axis=0),
        int(good.sum()),
        int(failed.sum()),
        moment,
    )


def _chunk_phase_sums(args):
    """Trace one chunk of a group once; phase sums for each member request.

    Module-level so worker pools can pickle it.  ``times`` holds each
    member's checkpoints in the traced frame and ``members`` its
    (scale, delta_xi / hbar, want_cov); the result lists their sums in the
    same order.
    """
    (qs, ps, times, geom, pot, max_bounces, members) = args
    integrals, failed = trajectory.checkpoint_action_integrals(
        qs, ps, times, geom, pot, max_bounces
    )
    return [_request_sums(i, f, *m) for i, f, m in zip(integrals, failed, members)]


def _power_of_two_ratio(a: np.ndarray, b: np.ndarray) -> float | None:
    """r with b == a * r exactly and r a positive power of two, else None."""
    if a.shape != b.shape:
        return None
    i = int(np.argmax(np.abs(a)))
    if a.flat[i] == 0.0:
        return None if b.any() else 1.0
    r = float(b.flat[i] / a.flat[i])
    if not (math.isfinite(r) and r > 0.0 and math.frexp(r)[0] == 0.5):
        return None
    return r if np.array_equal(a * r, b) else None


def _share_traces(ensembles) -> list[list[tuple[int, float]]]:
    """Group ensembles whose rays coincide: equal positions, momenta 2^k apart.

    Directions are then the same bits and a ray at momentum c * p is the ray
    at p with time stretched by 1/c, so one trace serves the whole group.
    Returns, per group, (ensemble index, momentum scale relative to the
    group's fastest member) pairs in input order.
    """
    groups: list[list[tuple[int, float]]] = []
    for i, ens in enumerate(ensembles):
        for members in groups:
            base = ensembles[members[0][0]]
            r = None
            if np.array_equal(base.qs, ens.qs):
                r = _power_of_two_ratio(base.ps, ens.ps)
            if r is not None:
                members.append((i, r))
                break
        else:
            groups.append([(i, 1.0)])
    out = []
    for members in groups:
        fastest = max(r for _, r in members)
        out.append([(i, r / fastest) for i, r in members])
    return out


class _Grid(NamedTuple):
    u: np.ndarray
    w_center: float
    times: np.ndarray  # distinct |u| * hbar, ascending
    inverse: np.ndarray  # grid entry -> index into times
    signs: np.ndarray


def _prepare(req: Request) -> _Grid:
    """Validated checkpoint grid of one request."""
    if not req.hbar > 0.0:
        raise ValueError(f"hbar must be positive, got {req.hbar}")
    u, w_center = _resolve_grid(req.u_grid)
    times, inverse, signs = _phase_times(u, req.hbar)
    if req.collect_covariance and (u.size != times.size or np.any(u < 0.0)):
        raise ValueError("covariance collection needs a one-sided ascending grid")
    return _Grid(u, w_center, times, inverse, signs)


def _reduce(req: Request, grid: _Grid, results) -> CharacteristicGrid:
    """Fixed-order reduction of one request's chunk sums into its G(u)."""
    u, w_center, times, inverse, signs = grid
    n = len(req.ensemble)
    k = times.size
    sum_c = np.zeros(k)
    sum_s = np.zeros(k)
    sum_c2 = np.zeros(k)
    sum_s2 = np.zeros(k)
    moment = np.zeros((2 * k, 2 * k)) if req.collect_covariance else None
    n_ok = 0
    n_failed = 0
    # Chunk index order, independent of worker count.
    for c, s, c2, s2, ok, fail, mom in results:
        sum_c += c
        sum_s += s
        sum_c2 += c2
        sum_s2 += s2
        if moment is not None:
            moment += mom
        n_ok += ok
        n_failed += fail

    if n_failed > FAILURE_BUDGET * n:
        raise ExcessiveFailures(f"{n_failed} of {n} samples failed")
    if n_ok == 0:
        raise ExcessiveFailures("no valid samples")

    mean_c = sum_c / n_ok
    mean_s = sum_s / n_ok
    if n_ok > 1:
        var_c = np.maximum(sum_c2 - n_ok * mean_c * mean_c, 0.0) / (n_ok - 1)
        var_s = np.maximum(sum_s2 - n_ok * mean_s * mean_s, 0.0) / (n_ok - 1)
    else:
        var_c = np.zeros(k)
        var_s = np.zeros(k)
    se_c = np.sqrt(var_c / n_ok)
    se_s = np.sqrt(var_s / n_ok)

    # Map |u| results onto the requested grid; negative u conjugates exactly.
    g = mean_c[inverse] + 1j * (signs * mean_s[inverse])
    return CharacteristicGrid(
        u_values=u,
        g_values=g,
        stderr_re=se_c[inverse],
        stderr_im=se_s[inverse],
        n_samples=n_ok,
        hbar=float(req.hbar),
        beta=float(req.ensemble.beta),
        w_center=w_center,
        n_failed=n_failed,
        metadata={"seed": req.ensemble.seed, "estimator": "boltzmann"},
        second_moment=moment,
    )


def semiclassical_characteristic(
    requests,
    geom: BilliardGeometry,
    pot: QuenchPotential,
    workers: int = 1,
    chunk_size: int = CHUNK_SIZE,
    max_bounces: int = MAX_BOUNCES_DEFAULT,
) -> list[CharacteristicGrid]:
    """Monte Carlo G(u) for each request: sample mean of the dephasing phases.

    Returns one grid per request, in order.  Every request is validated
    before any ray is traced.  Requests whose ensembles share rays (see
    ``_share_traces``) are traced once, to the latest checkpoint among them,
    and each still gets the same chunks, sums and failure count as a call
    with that request alone.  All chunks of all traces go through one worker
    pool.  Errored samples are dropped and counted per request; a request
    aborts with ExcessiveFailures if more than FAILURE_BUDGET of its samples
    fail before its last checkpoint, since silent rejection would bias the
    Boltzmann weighting.
    """
    requests = list(requests)
    grids = [_prepare(req) for req in requests]
    groups = _share_traces([req.ensemble for req in requests])

    tasks = []
    owners = []  # request indices of each task's members, in member order
    for members in groups:
        ens = requests[next(i for i, scale in members if scale == 1.0)].ensemble
        # A request at momentum scale c reaches its time t where the fastest
        # member reaches c * t, exactly, since c is a power of two.
        times = [grids[i].times * scale for i, scale in members]
        spec = [
            (scale, pot.delta_xi / requests[i].hbar, requests[i].collect_covariance)
            for i, scale in members
        ]
        n = len(ens)
        for lo in range(0, n, chunk_size):
            hi = min(lo + chunk_size, n)
            tasks.append((ens.qs[lo:hi], ens.ps[lo:hi], times, geom, pot, max_bounces, spec))
            owners.append([i for i, _ in members])
    if workers > 1 and len(tasks) > 1:
        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_chunk_phase_sums, tasks)
    else:
        results = [_chunk_phase_sums(t) for t in tasks]

    per_request = [[] for _ in requests]
    for idx, sums in zip(owners, results):
        for i, s in zip(idx, sums):
            per_request[i].append(s)
    return [_reduce(req, grid, res) for req, grid, res in zip(requests, grids, per_request)]


def shell_characteristic(
    beta: float,
    u_grid,
    hbar: float,
    geom: BilliardGeometry,
    pot: QuenchPotential,
    energies,
    samples_per_shell: int,
    seed: int,
    workers: int = 1,
    chunk_size: int = CHUNK_SIZE,
    max_bounces: int = MAX_BOUNCES_DEFAULT,
) -> CharacteristicGrid:
    """Shell-resolved estimator: Boltzmann-weighted microcanonical averages.

    Each listed energy is sampled uniformly on its shell (uniform position,
    uniform momentum direction, |p| = sqrt(E)) and the per-shell phase
    averages are combined with weights proportional to exp(-beta E).  The
    flat weighting in E is valid here because the density of states of the
    free billiard is constant.
    """
    energies = np.asarray(energies, dtype=float)
    if energies.size == 0:
        raise ValueError("need at least one shell energy")
    if np.any(np.diff(energies) <= 0.0):
        raise ValueError("shell energies must be strictly increasing")
    if not hbar > 0.0:
        raise ValueError(f"hbar must be positive, got {hbar}")
    u, w_center = _resolve_grid(u_grid)
    times, inverse, signs = _phase_times(u, hbar)

    log_w = -beta * (energies - energies.min())
    weights = np.exp(log_w)
    wsum = weights.sum()

    k = times.size
    g_shell = np.zeros((energies.size, k), dtype=complex)
    var_c = np.zeros((energies.size, k))
    var_s = np.zeros((energies.size, k))
    total_failed = 0
    for m, energy in enumerate(energies):
        qs, ps = sampler.sample_shell(geom, float(energy), samples_per_shell, seed, m)
        [(c, s, c2, s2, ok, fail, _)] = _chunk_phase_sums(
            (qs, ps, [times], geom, pot, max_bounces, [(1.0, pot.delta_xi / hbar, False)])
        )
        total_failed += fail
        if fail > FAILURE_BUDGET * samples_per_shell:
            raise ExcessiveFailures(f"shell {m}: {fail} of {samples_per_shell} failed")
        mc = c / ok
        ms = s / ok
        g_shell[m] = mc + 1j * ms
        if ok > 1:
            var_c[m] = np.maximum(c2 - ok * mc * mc, 0.0) / (ok - 1) / ok
            var_s[m] = np.maximum(s2 - ok * ms * ms, 0.0) / (ok - 1) / ok

    g_mag = (weights @ g_shell) / wsum
    se_c = np.sqrt((weights * weights) @ var_c) / wsum
    se_s = np.sqrt((weights * weights) @ var_s) / wsum

    g = g_mag.real[inverse] + 1j * (signs * g_mag.imag[inverse])
    # Every phase is exactly 1 at zero time, so the weighted mean there is
    # exactly 1; enforce it against summation-order rounding.
    g[np.asarray(u) == 0.0] = 1.0 + 0.0j
    return CharacteristicGrid(
        u_values=u,
        g_values=g,
        stderr_re=se_c[inverse],
        stderr_im=se_s[inverse],
        n_samples=int(energies.size * samples_per_shell),
        hbar=float(hbar),
        beta=float(beta),
        w_center=w_center,
        n_failed=total_failed,
        metadata={"seed": int(seed), "estimator": "shell", "n_shells": int(energies.size)},
    )
