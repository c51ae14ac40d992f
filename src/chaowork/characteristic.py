"""Semiclassical characteristic function of the quench work.

The estimator averages unit-modulus phases exp(i * dS(x0, u*hbar) / hbar)
over Boltzmann-drawn initial conditions, where dS is the time integral of
the energy jump along the unperturbed trajectory.  Each sample is propagated
once to the largest checkpoint time with the running integral recorded at
every u-grid time, so the cost is one trajectory per sample rather than one
per (sample, u) pair.

G is Hermitian, G(-u) = conj G(u), so every grid is one-sided: a
``UGridPlan`` holds u_k = k du for k = 0 .. n-1 and the center of the dual
work window, and nothing else is accepted as a u grid.  It also owns that
dual work grid, on which every route's P(W) lives.

``semiclassical_characteristic`` takes one ensemble and a list of requests
(beta, u plan, hbar, and optionally one linear functional of G whose
standard error is wanted) and traces each ray of the ensemble once for all of
them.  The ensemble holds unit-temperature momenta z, and the Boltzmann
momenta at beta are c * z with c = sqrt(1/(2 beta)).  Free flight is
scale-invariant: the ray at c * z reaches at time t the point the ray at z
reaches at c * t, and its integral of V is the one along z divided by c.
So the rays are traced at z, a request reads them at c * u * hbar and
takes the phase delta_xi / (hbar * c) times the integral there.  The engine
gets one ascending array, the union of every request's times
(``plan_trace``), and each request reads its own columns of it; a ray that
stops before a request's last checkpoint (lost boundary, bounce cap) is a
failed sample of that request only.  Each request gets the same numbers as
a call with that request alone.

A request that names the broadening its G will be inverted at traces only
the leading u points where the Gaussian kernel exp(-(eps u)^2 / 2) is at
least KERNEL_TOL; its G is 0 past them.  The inversion would multiply G
there by less than KERNEL_TOL, and the checkpoint times, so the cost of a
ray, grow with u.

The ensemble is cut into chunks of CHUNK_SIZE rays, the trace's one unit:
one task of a thread pool, one engine call and one block of each request's
sums.  ctypes releases the GIL inside the engine's ``trace`` and
``phase_sums``, and the engine keeps no global state, so a pool's threads
trace their chunks side by side in one process.  Each request keeps one
running total, and each chunk's sums are added to it in chunk order, so
results are bit-identical for any worker count.  A pool has at most two
chunks per worker submitted and not yet added, so the run holds that many
chunks' sums at most, whatever the ensemble size.
``check_trace_memory`` bounds all of that before a trace starts, and
refuses one that would not fit in physical memory.
"""

from __future__ import annotations

import collections
import ctypes
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import native, sampler, trajectory
from .geometry import BilliardGeometry
from .potential import QuenchPotential, evaluate
from .sampler import ThermalEnsemble
from .trajectory import MAX_BOUNCES_DEFAULT

CHUNK_SIZE = 512
PILOT_SAMPLES = 4096
FAILURE_BUDGET = 1e-3
# A request traces only the leading u points where the broadening's kernel
# exp(-(eps u)^2 / 2) is at least this.  As |G| <= 1 and (2n - 1) dw du =
# 2 pi, dropping the rest moves the L1 of P(W) by at most twice the sum of
# the dropped kernel values: 3e-6 at 64 u points and 3.1e-5 at 512, below
# the sampling error of an L1 between routes (4-9e-4).
KERNEL_TOL = 1e-6
# Doubles per row that a traced chunk holds beside its integrals: its
# positions and momenta, the engine's segment and bounce counts and its
# failure flags, and the deviations of a functional's values from their
# mean; each request with a functional holds one more, its values f.
_ROW_DOUBLES = 8


class ExcessiveFailures(RuntimeError):
    """More than the failure budget of samples errored; the average is biased."""


class InsufficientMemory(MemoryError):
    """A computation would need more than the machine's physical memory."""


def physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def require_memory(need: float, what: str) -> None:
    """Refuse ``what`` with InsufficientMemory when the ``need`` bytes it holds
    exceed physical memory: the package's one memory check."""
    have = physical_memory()
    if need > have:
        raise InsufficientMemory(
            f"{what} needs about {need / 1e9:.1f} GB, more than the {have / 1e9:.1f} GB of"
            " physical memory"
        )


@dataclass(frozen=True)
class UGridPlan:
    """One-sided uniform u grid u_k = k * du, k = 0 .. n-1, and its dual work
    grid: 2n - 1 bins of width ``dw`` centered on ``w_center``."""

    du: float
    n: int
    w_center: float = 0.0

    def __post_init__(self):
        if not (self.du > 0.0 and math.isfinite(self.du)):
            raise ValueError(f"du must be positive and finite, got {self.du}")
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 2):
            raise ValueError(f"n must be an integer >= 2, got {self.n}")

    @property
    def u_values(self) -> np.ndarray:
        return np.arange(self.n) * self.du

    @property
    def dw(self) -> float:
        return 2.0 * math.pi / ((2 * self.n - 1) * self.du)

    @property
    def w_values(self) -> np.ndarray:
        return self.w_center + (np.arange(2 * self.n - 1) - (self.n - 1)) * self.dw

    def kernel(self, eps: float, k=None):
        """exp(-(eps u_k)^2 / 2) on every u_k, or on u_k alone for an index
        ``k``: a Gaussian of width eps in W, as the factor it puts on G(u_k).
        One point's value is taken on its own, as numpy's exp of one value
        can differ in the last bit from the same value's in an array."""
        u = self.u_values if k is None else self.u_values[k]
        return np.exp(-0.5 * (eps * u) ** 2)

    def kept(self, eps: float) -> int:
        """How many leading u points have a kernel of at least KERNEL_TOL at
        eps; the kernel falls with u, so the rest are all below it."""
        return int(np.count_nonzero(self.kernel(eps) >= KERNEL_TOL))


@dataclass
class CharacteristicGrid:
    """Sampled complex G(u) on a u plan with per-point statistical error.

    stderr_re / stderr_im are standard errors of the real and imaginary
    quadratures; deterministic producers (the quantum oracle) store zeros.
    They treat the u points as independent; ``functional_stderr``, that of
    the request's functional c . [Re G; Im G] (the free energy's), does not.
    """

    plan: UGridPlan
    g_values: np.ndarray
    stderr_re: np.ndarray
    stderr_im: np.ndarray
    n_samples: int
    hbar: float
    beta: float
    n_failed: int = 0
    metadata: dict = field(default_factory=dict)
    functional: np.ndarray | None = None
    functional_stderr: float | None = None

    @property
    def u_values(self) -> np.ndarray:
        return self.plan.u_values


def plan_u_grid(
    geom: BilliardGeometry,
    pot: QuenchPotential,
    seed: int,
    n_u: int = 512,
    pad_frac: float = 0.2,
) -> UGridPlan:
    """u grid from Fourier duality against a pilot sample of the work values.

    A pilot of PILOT_SAMPLES uniform positions gives the support of W = (xi_f - xi_0) V(q);
    the window is padded by ``pad_frac`` of the raw span on each side and
    du = 2 pi / span.  n_u one-sided points (a power of two by convention).
    """
    rng = sampler.block_generator(seed, sampler.STREAM_PILOT, 0)
    qs = sampler.sample_positions(geom, rng, PILOT_SAMPLES)
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
    return UGridPlan(2.0 * math.pi / (hi - lo), n_u, 0.5 * (lo + hi))


@dataclass(frozen=True)
class Request:
    """One G(u) to estimate: beta, a u plan, hbar, an optional functional and
    the broadening its G will be inverted at.

    ``functional`` is a vector c of length 2 n, the coefficients of Re G(u_k)
    then those of Im G(u_k).  With it, each sample's f = c . [cos; sin] of
    its phases is summed with its square, and the grid gets the standard
    error of c . [Re G; Im G], the sample mean of f.

    With a ``broadening`` eps, only the leading ``u_traced`` points, where
    the plan's kernel at eps is at least KERNEL_TOL, are traced, and G and
    its errors are 0 past them; f takes only their coefficients.  Without
    one, every u point is traced.
    """

    beta: float
    u_grid: UGridPlan
    hbar: float
    functional: np.ndarray | None = None
    broadening: float | None = None

    @property
    def u_traced(self) -> int:
        """The leading u points the request traces."""
        if self.broadening is None:
            return self.u_grid.n
        return self.u_grid.kept(self.broadening)


def _request_sums(integrals, columns, coef: float, functional):
    """One request's phase sums over the good rows of a traced chunk, from
    one engine call: (sums, ok, failed, f_moments).  The engine takes the
    chunk's ``integrals``, the request's ``columns`` of them (int64) and its
    ``functional`` as C-contiguous arrays.

    ``sums`` stacks the per-column sums of cos, sin, cos^2 and sin^2 into a
    (4, k) array, and ``f_moments`` is ``_merge``'s triple for f =
    functional . [cos; sin], or (0, 0.0, 0.0) without a functional.  A row
    is good when the ray reached the request's last checkpoint.  The
    engine's ``phase_sums`` takes the phases row by row and adds them into
    zero sums in row order.  Its cos and sin are libmvec's four-lane ones on
    the engine's four-lane math path, within a few units in the last place
    of numpy's, and glibc's sincos otherwise, whose sums have the bits of
    numpy's cos, sin and sum over the chunk's good rows.  It writes each
    good row's f into one chunk-long vector at the count of good rows before
    it, and numpy takes the count, mean and squared deviations of that vector.
    """
    rows = integrals.shape[0]
    sums = np.zeros((4, columns.size))
    f = None if functional is None else np.empty(rows)
    ok = native.load().phase_sums(
        rows,
        integrals.shape[1],
        native.pointer(integrals),
        columns.size,
        native.pointer(columns, ctypes.c_int64),
        coef,
        None if f is None else native.pointer(functional),
        native.pointer(sums),
        None if f is None else native.pointer(f),
    )
    f_moments = (0, 0.0, 0.0)
    if f is not None and ok:
        f_moments = (ok, float(f[:ok].mean()), float(np.var(f[:ok]) * ok))
    return sums, ok, rows - ok, f_moments


def _merge(a, b):
    """(count, mean, sum of squared deviations) of two sample sets, from
    each one's; stable where sum f^2 - (sum f)^2 / n cancels digits."""
    (na, ma, qa), (nb, mb, qb) = a, b
    n, d = na + nb, mb - ma
    return (n, ma + d * nb / n, qa + qb + d * d * na * nb / n) if nb else a


def _chunk_bytes(rows: int, n_times: int, n_functionals: int) -> int:
    """The most bytes one traced chunk of ``rows`` rays through ``n_times``
    checkpoint times holds at once: its integrals and its vectors of rows,
    with ``n_functionals`` requests' f."""
    return 8 * rows * (n_times + _ROW_DOUBLES + n_functionals)


def _pool(workers: int, n_chunks: int) -> tuple[int, int]:
    """The threads a trace of ``n_chunks`` chunks uses, and the chunk results
    the run holds until it folds them: up to 2 x workers submitted to the
    pool and folded in chunk order, or the one chunk just traced."""
    workers = min(workers, n_chunks)
    return workers, 2 * workers if workers > 1 else 1


def check_trace_memory(n_rows: int, n_times: int, u_points, n_functionals: int, workers: int):
    """Refuse with InsufficientMemory a trace that would not fit in physical memory.

    The trace is of ``n_rows`` rays in chunks of ``CHUNK_SIZE`` on
    ``workers`` threads, through ``n_times`` checkpoint times, for one
    request per entry of ``u_points`` (its number of traced u points),
    ``n_functionals`` of them with a functional.  It holds the chunks in
    flight, one per thread, and each request's total and the sums of the
    chunks submitted to the pool and not yet added.
    """
    workers, window = _pool(workers, -(-n_rows // CHUNK_SIZE))
    in_flight = max(workers, 1)  # a thread holds one chunk at a time
    rows = min(CHUNK_SIZE, n_rows)
    chunk = _chunk_bytes(rows, n_times, n_functionals)
    # Per request, the total and each held chunk's (4, k) sums.
    require_memory(
        in_flight * chunk + 8 * (1 + window) * 4 * sum(u_points),
        f"tracing {in_flight} chunks of {rows} rays at once through {n_times} checkpoint"
        f" times and summing {len(u_points)} requests",
    )


def _chunk_phase_sums(args):
    """Trace one chunk of the ensemble once; phase sums for each request.

    ``times`` is the ascending union of every request's checkpoints on the
    unit-temperature rays, and ``spec`` holds per request (the columns of
    its own times in ``times``, delta_xi / (hbar * c), functional or None).
    Returns the list of ``_request_sums`` results in request order, and the
    chunk's ``TraceCounts``.
    """
    (qs, z, times, geom, pot, max_bounces, spec) = args
    integrals, _, counts = trajectory.checkpoint_action_integrals(
        qs, z, times, geom, pot, max_bounces
    )
    return [_request_sums(integrals, *m) for m in spec], counts


def _trace_summary(counts) -> dict:
    """What the shared trace did, from its chunks' ``TraceCounts`` in row
    order, each with its flights summed to their total.

    ``lanes`` is the engine's math path, ``math_lanes``: its G differs from
    the other path's at the rounding level.
    """
    bounces = np.concatenate([c.bounces for c in counts])
    # In place: the joined copy is this summary's own.
    p50, p99 = np.quantile(bounces, [0.5, 0.99], method="inverted_cdf", overwrite_input=True)
    return {
        "segments": sum(int(c.segments) for c in counts),
        "bounce_p50": int(p50),
        "bounce_p99": int(p99),
        "bounce_max": int(bounces.max()),
        "grazing": sum(c.grazing for c in counts),
        "corner": sum(c.corner for c in counts),
        "lanes": native.load().math_lanes(),
    }


class _Grid(NamedTuple):
    times: np.ndarray  # u * hbar * c, ascending
    scale: float  # c = sqrt(1 / (2 beta)), the momentum scale of the request


def _prepare(req: Request) -> _Grid:
    """Validated checkpoint grid of one request on the unit-temperature rays."""
    scale = sampler.momentum_scale(req.beta)
    if not req.hbar > 0.0:
        raise ValueError(f"hbar must be positive, got {req.hbar}")
    if not isinstance(req.u_grid, UGridPlan):
        raise TypeError(f"u_grid must be a UGridPlan, got {type(req.u_grid).__name__}")
    c, k = req.functional, req.u_grid.n
    if c is not None and (np.shape(c) != (2 * k,) or not np.isfinite(c).all()):
        raise ValueError(f"functional must be {2 * k} finite numbers, got shape {np.shape(c)}")
    eps = req.broadening
    if eps is not None and not (eps >= 0.0 and math.isfinite(eps)):
        raise ValueError(f"broadening must be nonnegative and finite, got {eps}")
    return _Grid(req.u_grid.u_values[: req.u_traced] * (req.hbar * scale), scale)


def plan_trace(requests, n_rows: int, workers: int):
    """Each request's validated checkpoint grid and the ascending union of
    their times, the one array the shared trace runs through.

    A trace of ``n_rows`` rays through that union on ``workers`` threads
    that would not fit in physical memory is refused with
    InsufficientMemory (``check_trace_memory``), so a caller can refuse it
    before any work, with the count the trace itself makes.
    """
    grids = [_prepare(req) for req in requests]
    # Sorted, with repeats dropped: np.unique would import numpy.ma.
    times = np.sort(np.concatenate([grid.times for grid in grids]))
    times = times[np.concatenate(([True], times[1:] != times[:-1]))]
    n_functionals = sum(req.functional is not None for req in requests)
    u_points = [req.u_traced for req in requests]
    check_trace_memory(n_rows, times.size, u_points, n_functionals, workers)
    return grids, times


def _traced_coefficients(req: Request):
    """The functional's coefficients of the traced u points: those of Re G,
    then those of Im G, as one float array; None without a functional."""
    c, n, k = req.functional, req.u_grid.n, req.u_traced
    return None if c is None else np.concatenate([c[:k], c[n : n + k]], dtype=float)


class _Total:
    """One request's running sums over the chunks folded so far."""

    def __init__(self, req: Request):
        # Zeros first, so a -0.0 chunk sum still totals +0.0.
        self.sums = np.zeros((4, req.u_traced))
        self.f_moments = (0, 0.0, 0.0)  # _merge's count, mean, deviations
        self.ok = 0
        self.failed = 0

    def add(self, sums, ok, failed, f_moments):
        self.sums += sums
        self.f_moments = _merge(self.f_moments, f_moments)
        self.ok += ok
        self.failed += failed


def _reduce(ens: ThermalEnsemble, req: Request, total: _Total, trace: dict) -> CharacteristicGrid:
    """One request's G(u) from its total over every chunk, with G and its
    errors 0 past the u points it traced.

    ``trace`` is the shared trace's summary, kept in the grid's metadata
    with the kernel tolerance and the count of traced u points.
    """
    plan = req.u_grid
    n = len(ens)
    k = plan.n
    sums = np.zeros((4, k))
    sums[:, : req.u_traced] = total.sums
    sum_c, sum_s, sum_c2, sum_s2 = sums
    n_ok = total.ok
    n_failed = total.failed

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
    f_stderr = None
    if req.functional is not None:
        f_stderr = math.sqrt(total.f_moments[2] / max(n_ok - 1, 1) / n_ok)

    return CharacteristicGrid(
        plan=plan,
        g_values=mean_c + 1j * mean_s,
        stderr_re=se_c,
        stderr_im=se_s,
        n_samples=n_ok,
        hbar=float(req.hbar),
        beta=float(req.beta),
        n_failed=n_failed,
        metadata={
            "seed": ens.seed,
            "estimator": "boltzmann",
            "trace": dict(trace),
            "kernel_tol": None if req.broadening is None else KERNEL_TOL,
            "u_traced": req.u_traced,
        },
        functional=req.functional,
        functional_stderr=f_stderr,
    )


def semiclassical_characteristic(
    ens: ThermalEnsemble,
    requests,
    geom: BilliardGeometry,
    pot: QuenchPotential,
    workers: int = 1,
    max_bounces: int = MAX_BOUNCES_DEFAULT,
) -> list[CharacteristicGrid]:
    """Monte Carlo G(u) for each request: sample mean of the dephasing phases.

    Returns one grid per request, in order.  Every request is validated
    before any ray is traced.  Each chunk of ``ens`` is traced once, at its
    unit-temperature momenta, through the union of all requests' checkpoint
    times, so a time two requests share is filled once; each request reads
    its own columns and gets the same chunks, sums and failure count as a
    call with that request alone.  A request with a ``broadening`` traces
    only its ``u_traced`` leading u points, and its grid holds G = 0 with
    errors 0 past them; a failure past them does not count against it.
    Its metadata records ``kernel_tol`` and ``u_traced``.  A request with
    a ``functional`` c also takes each good sample's f = c . [cos; sin],
    over the traced u points only, and the mean and squared
    deviations of f, and its grid gets ``functional_stderr``; its G and
    per-point errors are those of the same request without c.  Each grid's
    ``metadata["trace"]`` holds what that shared trace did: its total
    segments, the median, 99th percentile and largest bounce count per ray,
    its grazing and corner reflections, and the lanes of its erf and exp.
    Each request keeps one running total, and each chunk's sums are added
    to it in chunk order.  Chunks go to a pool of ``workers`` threads at
    most 2 x workers ahead of the next one to add, so the reduction holds
    one total per request and at most that many chunks' sums (one without
    a pool), whatever the ensemble size; on an error the chunks not yet
    started are cancelled.  A trace whose chunks in flight and those sums
    would not fit in physical memory is refused with InsufficientMemory
    before it starts (``check_trace_memory``).  Errored samples are
    dropped and counted per request; a request aborts with ExcessiveFailures
    if more than FAILURE_BUDGET of its samples fail before its last
    checkpoint, since silent rejection would bias the Boltzmann weighting.
    """
    requests = list(requests)
    if not requests:
        return []
    grids, times = plan_trace(requests, len(ens), workers)
    spec = [
        (
            np.searchsorted(times, grid.times),
            pot.delta_xi / (req.hbar * grid.scale),
            _traced_coefficients(req),
        )
        for req, grid in zip(requests, grids)
    ]
    tasks = []
    for lo in range(0, len(ens), CHUNK_SIZE):
        hi = lo + CHUNK_SIZE
        tasks.append((ens.qs[lo:hi], ens.z[lo:hi], times, geom, pot, max_bounces, spec))
    workers, window = _pool(workers, len(tasks))
    totals = [_Total(req) for req in requests]
    counts = []

    def fold(result):
        sums, chunk_counts = result
        for total, request_sums in zip(totals, sums):
            total.add(*request_sums)
        # Of the flights the summary needs only their total.
        counts.append(chunk_counts._replace(segments=chunk_counts.segments.sum()))

    native.load()  # built, on first use, before two threads could build it
    if workers > 1:
        pool = ThreadPoolExecutor(workers)
        try:
            pending = collections.deque()
            for task in tasks:
                if len(pending) == window:
                    fold(pending.popleft().result())
                pending.append(pool.submit(_chunk_phase_sums, task))
            while pending:
                fold(pending.popleft().result())
        finally:
            pool.shutdown(cancel_futures=True)
    else:
        for task in tasks:
            fold(_chunk_phase_sums(task))

    trace = _trace_summary(counts)
    return [_reduce(ens, req, total, trace) for req, total in zip(requests, totals)]
