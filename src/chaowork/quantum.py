"""Exact quantum reference on a finite-difference grid.

The kinetic operator for mass 1/2 is -hbar^2 Laplacian, discretized with the
5-point stencil on lattice sites strictly inside the billiard (Dirichlet
zeros outside; the curved arc is a plain staircase, whose bias is policed by
the h^2 convergence test on a rectangle rather than a boundary-fitted
scheme).  The quenched Hamiltonian adds the diagonal xi * V.  Each
Hamiltonian is a ``Stencil``: the diagonal, the table of lattice neighbours
and the hopping scale, from which its dense form, its products and its row
sums are taken.

The full spectrum is LAPACK's divide-and-conquer ``syevd`` run in place on
the dense H, through the LAPACK numpy itself links (``numpy.linalg.eigh``
only where numpy exports no ``syevd``); a partial one is scipy's
shift-invert Lanczos on the CSR matrix built from the stencil, the only code
path that imports scipy.  From the two eigenbases the module builds the
two-point-measurement characteristic function G(u) and the free-energy
identity check.  The work distribution is ``spectra.invert`` of that G, the
same transform every other route uses.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .characteristic import CharacteristicGrid, UGridPlan, require_memory
from .geometry import BilliardGeometry
from .potential import QuenchPotential, evaluate

_MAGIC = b"CHWKSPC1"


class GridTooCoarse(ValueError):
    pass


class ConvergenceFailure(RuntimeError):
    pass


class DimensionMismatch(ValueError):
    pass


class TruncationDominates(RuntimeError):
    """The retained basis is too small for this temperature."""


# n x n float64 arrays the dense path can hold at once: while H(xi_f) is
# solved, the first eigenvector block, the dense H (which syevd overwrites
# with its eigenvectors) and syevd's workspace of two; then the residual and
# its temporary beside both eigenvector blocks.  ru_maxrss above the
# imported baseline, spike_support included, reads 4.9 of them at 1,057
# sites and 4.3 at 2,772; the count leaves a margin of at least 2.
_DENSE_ARRAYS = 7

# float64 values per point of the nx x ny lattice box that build_grid holds
# at once: its meshgrid, the stacked points, the membership tests'
# temporaries and the kept sites.  tracemalloc reads 7.1-8.2 at 4,851 to
# 79,401 points.
_LATTICE_DOUBLES = 10

# Largest accepted eigen-residual, relative to the Gershgorin bound on |H|,
# and largest entry of V^T V - I.
RESIDUAL_TOL = 1e-8
ORTHO_TOL = 1e-10
# Most Boltzmann weight the top decile of retained states may carry.
TRUNCATION_THRESHOLD = 0.01
# Work-spike mass ``spike_support`` leaves outside its range at each end.
SPIKE_MASS_TOL = 1e-10


def _numpy_openblas():
    """The library numpy's linear algebra links, or None where it cannot be
    opened: in numpy's wheels, scipy-openblas built with 64-bit integers."""
    from numpy.linalg import _umath_linalg

    try:
        return ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None


_OPENBLAS = _numpy_openblas()
# LAPACKE's wrapper of the ``dsyevd`` that ``numpy.linalg.eigh`` calls; None
# where numpy links another LAPACK.
_DSYEVD = getattr(_OPENBLAS, "scipy_LAPACKE_dsyevd64_", None)
if _DSYEVD is not None:
    # (layout, jobz, uplo, n, a, lda, w) -> info
    _DSYEVD.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char, ctypes.c_int64,
                        ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p]
    _DSYEVD.restype = ctypes.c_int64
_LAPACK_COL_MAJOR = 102


def numpy_blas() -> dict:
    """The thread count and build string of the OpenBLAS numpy links.

    The dense eigensolve's bits depend on both: the same H gave other
    eigenvalue and eigenvector bytes on 1 and on 2 OpenBLAS threads.  They
    are read from scipy-openblas's ``scipy_openblas_get_num_threads64_`` and
    ``scipy_openblas_get_config64_`` in ``_OPENBLAS``; each is None where
    its symbol is absent.
    """
    found = {"blas_threads": None, "blas_config": None}
    for key, name, restype in (
        ("blas_threads", "scipy_openblas_get_num_threads64_", ctypes.c_int),
        ("blas_config", "scipy_openblas_get_config64_", ctypes.c_char_p),
    ):
        fn = getattr(_OPENBLAS, name, None)
        if fn is not None:
            fn.argtypes, fn.restype = [], restype
            value = fn()
            found[key] = value.decode() if isinstance(value, bytes) else value
    return found


@dataclass(frozen=True)
class GridSpec:
    """Lattice sites strictly inside the domain, spacing h, row-major index."""

    h: float
    coords: np.ndarray
    nx: int
    ny: int

    @property
    def n_sites(self) -> int:
        return self.coords.shape[0]


@dataclass
class QuenchSpectra:
    """Eigenvalues of both Hamiltonians plus the transition matrix.

    ``transition[m, n]`` is the probability of landing in final state n from
    initial state m (squared eigenvector overlap); rows sum to one when the
    full grid spectrum is retained.
    """

    e0: np.ndarray
    ef: np.ndarray
    transition: np.ndarray
    hbar: float
    h: float
    n_sites: int
    metadata: dict = field(default_factory=dict)


def build_grid(domain, h: float) -> GridSpec:
    """Sites (i h, j h), i, j >= 1, strictly inside ``domain``.

    ``domain`` is the billiard or any object with ``contains`` and
    ``bounding_box``; tests substitute a rectangle to compare against
    analytic spectra.  A lattice box whose points would not fit in physical
    memory is refused with InsufficientMemory before any is formed.
    """
    if not h > 0.0:
        raise ValueError(f"grid spacing must be positive, got {h}")
    w, hgt = domain.bounding_box
    nx = int(math.ceil(w / h)) - 1
    ny = int(math.ceil(hgt / h)) - 1
    if nx < 1 or ny < 1:
        raise GridTooCoarse(f"no interior sites at h={h}")
    require_memory(_LATTICE_DOUBLES * 8 * nx * ny, f"a {nx} x {ny} lattice at h = {h:g}")
    xs = (np.arange(1, nx + 1)) * h
    ys = (np.arange(1, ny + 1)) * h
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    if isinstance(domain, BilliardGeometry):
        inside = geometry.contains_many(domain, pts)
        # Strict interior: drop sites on (or numerically at) the boundary.
        # Only the circle's arc at x >= l is a wall; where it crosses the
        # rectangle its lattice points are interior sites.
        on_edge = (np.abs(pts[:, 1] - domain.r) < 1e-12) | (
            (pts[:, 0] >= domain.l)
            & (np.abs((pts[:, 0] - domain.l) ** 2 + pts[:, 1] ** 2 - domain.r**2) < 1e-12)
        )
        inside &= ~on_edge
    else:
        inside = np.array([domain.contains(q) for q in pts])
    coords = pts[inside]
    if coords.shape[0] < 100:
        raise GridTooCoarse(f"only {coords.shape[0]} interior sites at h={h}")
    return GridSpec(h=float(h), coords=coords, nx=nx, ny=ny)


@dataclass(frozen=True)
class Stencil:
    """A 5-point Hamiltonian: ``diag`` on the diagonal, -``scale`` to each
    lattice neighbour.

    ``neighbours`` is (4, n): the left, down, up and right neighbour of each
    site, -1 where it lies outside the domain.  With the diagonal between
    down and up, that is the ascending column order of a CSR row, and every
    sum over a row is taken in that order.
    """

    diag: np.ndarray
    neighbours: np.ndarray
    scale: float

    @property
    def shape(self) -> tuple[int, int]:
        return (self.diag.size, self.diag.size)

    def _rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(columns, values), each (n, 5), of every row in column order; column -1 where absent."""
        n = self.diag.size
        off = np.full(n, -self.scale)
        nb = self.neighbours
        cols = np.stack([nb[0], nb[1], np.arange(n), nb[2], nb[3]], axis=1)
        return cols, np.stack([off, off, self.diag, off, off], axis=1)

    def csr_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(data, indices, indptr) of the matrix in CSR form."""
        cols, vals = self._rows()
        present = cols >= 0
        indptr = np.zeros(self.diag.size + 1, dtype=np.int64)
        np.cumsum(present.sum(axis=1), out=indptr[1:])
        return vals[present], cols[present], indptr

    def abs_row_sums(self) -> np.ndarray:
        """Sum of |H_ij| over each row i, added in column order."""
        data, _, indptr = self.csr_arrays()
        return np.add.reduceat(np.abs(data), indptr[:-1])

    def toarray(self) -> np.ndarray:
        """The dense n x n matrix."""
        cols, vals = self._rows()
        present = cols >= 0
        out = np.zeros(self.shape)
        out[np.nonzero(present)[0], cols[present]] = vals[present]
        return out

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """H @ x for x of shape (n, k), each row of H summed in column order.

        One (n, k) buffer besides the result holds each column's terms.
        """
        out = np.zeros(x.shape)
        term = np.empty(x.shape)
        cols, vals = self._rows()
        for col, val in zip(cols.T, vals.T):
            present = (col >= 0)[:, None]
            # "clip" maps an absent neighbour's -1 to row 0, whose term is
            # never added, and writes into ``term`` without a temporary.
            np.take(x, col, axis=0, out=term, mode="clip")
            term *= val[:, None]
            np.add(out, term, out=out, where=present)
        return out


def build_hamiltonians(
    geom_or_domain,
    pot: QuenchPotential,
    hbar: float,
    h: float,
    grid: GridSpec | None = None,
) -> tuple[Stencil, Stencil, GridSpec]:
    """Symmetric 5-point H(xi_0) and H(xi_f) on the interior lattice:
    ``grid``, the one ``build_grid(geom_or_domain, h)`` gives, when the
    caller has built it already."""
    if grid is None:
        grid = build_grid(geom_or_domain, h)
    n = grid.n_sites
    ij = np.rint(grid.coords / h).astype(np.int64)
    # Sites are in ascending key order, so a sorted search finds each neighbour.
    stride = grid.ny + 2
    keys = ij[:, 0] * stride + ij[:, 1]
    neighbours = np.empty((4, n), dtype=np.int64)
    for row, step in zip(neighbours, (-stride, -1, 1, stride)):
        at = np.minimum(np.searchsorted(keys, keys + step), n - 1)
        row[:] = np.where(keys[at] == keys + step, at, -1)
    scale = hbar * hbar / (h * h)
    kinetic = np.full(n, 4.0 * scale)
    v = evaluate(pot, grid.coords)
    h0, hf = (
        Stencil(kinetic + xi * v if xi else kinetic, neighbours, scale)
        for xi in (pot.xi_0, pot.xi_f)
    )
    return h0, hf, grid


def eigensolve(
    ham: Stencil,
    n_states: int,
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Lowest n_states eigenpairs, verified against the RESIDUAL_TOL and
    ORTHO_TOL bounds.

    Full-dimension requests run LAPACK's dense divide-and-conquer solver
    (``syevd``) in place on the dense H, through numpy's own LAPACK, so the
    bits are those of ``numpy.linalg.eigh`` without its copy of H;
    ``numpy.linalg.eigh`` itself only where numpy exports no ``syevd``.
    They are refused with InsufficientMemory before H is formed when the
    estimated footprint exceeds physical memory.  Partial ones use scipy's
    shift-invert Lanczos from below the Gershgorin lower bound, the only use
    of scipy in the package.  The third item records the solver and the
    achieved defects: the worst residual norm relative to the Gershgorin
    bound on |H|, and the largest entry of V^T V - I.
    """
    dim = ham.shape[0]
    if n_states > dim:
        raise ValueError(f"requested {n_states} states from dimension {dim}")
    row_sums = ham.abs_row_sums()
    if n_states == dim:
        require_memory(_DENSE_ARRAYS * 8 * dim * dim, f"a dense eigensolve of dimension {dim}")
        # Divide and conquer rather than MRRR (evr), which slows down on the
        # near-degenerate pairs these grids have.
        solver = "dense evd"
        dense = ham.toarray()
        if _DSYEVD is None:
            vals, vecs = np.linalg.eigh(dense)
        else:
            # Column-major 'L' of the symmetric H reads what eigh's copy
            # holds; syevd leaves eigenvector k in row k of the C array.
            vals = np.empty(dim)
            info = _DSYEVD(_LAPACK_COL_MAJOR, b"V", b"L", dim, dense.ctypes.data, dim,
                           vals.ctypes.data)
            if info:
                raise ConvergenceFailure(f"syevd returned info {info}")
            vecs = np.ascontiguousarray(dense.T)
        del dense
    else:
        from scipy import sparse
        from scipy.sparse.linalg import eigsh

        solver = "shift-invert lanczos"
        offsum = row_sums - np.abs(ham.diag)
        sigma = float((ham.diag - offsum).min()) - 1.0
        csc = sparse.csr_matrix(ham.csr_arrays(), shape=ham.shape).tocsc()
        # Deterministic start vector keeps reruns bit-stable.
        v0 = np.full(dim, 1.0 / math.sqrt(dim))
        vals, vecs = eigsh(csc, k=n_states, sigma=sigma, which="LM", v0=v0)
        order = np.argsort(vals)
        vals = vals[order]
        vecs = vecs[:, order]

    # Both defects are formed in place: on the dense path each temporary is
    # as large as the eigenvector block.
    resid = ham @ vecs
    resid -= vecs * vals
    residual = float(np.sqrt(np.einsum("ij,ij->j", resid, resid).max())) / float(row_sums.max())
    del resid
    if residual > RESIDUAL_TOL:
        raise ConvergenceFailure(f"residual {residual:.3e} |H| exceeds {RESIDUAL_TOL} |H|")
    gram = vecs.T @ vecs
    gram.flat[:: vals.size + 1] -= 1.0
    ortho = float(np.abs(gram, out=gram).max())
    if ortho > ORTHO_TOL:
        raise ConvergenceFailure(f"orthonormality defect {ortho:.3e}")
    return vals, vecs, {"solver": solver, "residual": residual, "orthogonality": ortho}


def transition_matrix(vecs0: np.ndarray, vecsf: np.ndarray) -> np.ndarray:
    """Squared overlaps: transition[m, n] = (v0_m . vf_n)^2."""
    if vecs0.shape[0] != vecsf.shape[0]:
        raise DimensionMismatch(
            f"eigenvectors live on different grids: {vecs0.shape[0]} vs {vecsf.shape[0]}"
        )
    overlap = vecs0.T @ vecsf
    overlap *= overlap
    return overlap


def solve_quench(
    geom_or_domain,
    pot: QuenchPotential,
    hbar: float,
    h: float,
    n_initial: int | None = None,
    n_final: int | None = None,
    grid: GridSpec | None = None,
) -> QuenchSpectra:
    """Diagonalize both Hamiltonians and assemble the transition matrix.

    None for either count keeps the full grid spectrum (dense solve).  A
    count above the number of sites raises ValueError before either solve.
    ``grid`` is ``build_grid(geom_or_domain, h)`` when the caller has built
    it already.  The metadata records, for each Hamiltonian, the solver and
    the residual and orthogonality defects ``eigensolve`` achieved.
    """
    h0, hf, grid = build_hamiltonians(geom_or_domain, pot, hbar, h, grid)
    dim = grid.n_sites
    n0 = dim if n_initial is None else n_initial
    nf = dim if n_final is None else n_final
    for n in (n0, nf):
        if n > dim:
            raise ValueError(f"requested {n} states from dimension {dim}")
    e0, v0, solve0 = eigensolve(h0, n0)
    ef, vf, solvef = eigensolve(hf, nf)
    t = transition_matrix(v0, vf)
    return QuenchSpectra(
        e0=e0,
        ef=ef,
        transition=t,
        hbar=float(hbar),
        h=grid.h,
        n_sites=dim,
        metadata={
            "full_spectrum": n0 == dim and nf == dim,
            "eigensolve": {"initial": solve0, "final": solvef},
        },
    )


def boltzmann_weights(e0: np.ndarray, beta: float) -> np.ndarray:
    """Normalized exp(-beta E) over the retained initial states (shifted)."""
    w = np.exp(-beta * (e0 - e0.min()))
    return w / w.sum()


def check_truncation(e0: np.ndarray, beta: float) -> float:
    """Boltzmann weight of the top decile of retained states; raises when the
    basis is too small for this temperature."""
    w = boltzmann_weights(e0, beta)
    top = w[int(math.floor(0.9 * w.size)) :].sum()
    if top > TRUNCATION_THRESHOLD:
        raise TruncationDominates(
            f"top decile of retained states carries {top:.3g} Boltzmann weight"
        )
    return float(top)


def quantum_characteristic(
    spec: QuenchSpectra,
    beta: float,
    plan: UGridPlan,
) -> CharacteristicGrid:
    """Exact G(u) on ``plan``: thermally weighted transition phases
    exp(i u (E_f - E_0)).

    Fourier pair of the unbroadened work distribution; deterministic, so the
    stored standard errors are zero.
    """
    u = plan.u_values
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    check_truncation(spec.e0, beta)
    w = boltzmann_weights(spec.e0, beta)
    # G(u) = sum_n e^{i u ef_n} (re - i im)[:, n], with re and im the real
    # products (w_m cos(u e0_m)) @ T and (w_m sin(u e0_m)) @ T: T is never
    # copied to complex, and each (K, n) block is formed in place.
    arg = np.outer(u, spec.e0)  # (K, n0)
    a = np.cos(arg)
    a *= w
    re = a @ spec.transition  # (K, nf)
    np.sin(arg, out=a)
    a *= w
    im = a @ spec.transition
    del arg, a
    s = np.outer(u, spec.ef)
    c = np.cos(s)
    np.sin(s, out=s)
    g_re = np.einsum("kn,kn->k", re, c) + np.einsum("kn,kn->k", im, s)
    g_im = np.einsum("kn,kn->k", re, s) - np.einsum("kn,kn->k", im, c)
    zeros = np.zeros(u.size)
    return CharacteristicGrid(
        plan=plan,
        g_values=g_re + 1j * g_im,
        stderr_re=zeros,
        stderr_im=zeros.copy(),
        n_samples=0,
        hbar=spec.hbar,
        beta=float(beta),
        metadata={"source": "quantum"},
    )


def quantum_jarzynski(spec: QuenchSpectra, beta: float) -> tuple[float, float]:
    """(lhs, rhs) of the free-energy identity: the two-point-measurement
    average of exp(-beta W) and the retained-spectrum partition ratio.

    Equal exactly at full spectrum; the gap measures truncation otherwise.
    Both are infinite when exp(-beta dF) overflows a double.
    """
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    shift = spec.e0.min()
    with np.errstate(over="ignore"):
        bf = np.exp(-beta * (spec.ef - shift))
    z0 = np.exp(-beta * (spec.e0 - shift)).sum()
    lhs = float((spec.transition @ bf).sum() / z0)
    rhs = float(bf.sum() / z0)
    return lhs, rhs


def spike_support(
    spec: QuenchSpectra, beta: float, mass_tol: float = SPIKE_MASS_TOL
) -> tuple[float, float]:
    """Weighted quantile range of the work spikes containing all but mass_tol."""
    e0, ef = spec.e0, spec.ef
    # Each array here has n0 * nf entries, so none is kept longer than needed:
    # the spikes only until sorted (entry k is the pair divmod(k, nf)), and
    # the cumulative mass overwrites the masses.
    order = np.argsort((ef[None, :] - e0[:, None]).ravel())
    w = boltzmann_weights(e0, beta)
    masses = (w[:, None] * spec.transition).ravel()
    cum = np.cumsum(masses[order], out=masses)
    total = cum[-1]

    def spike_at(mass: float) -> float:
        i = min(int(np.searchsorted(cum, mass)), order.size - 1)
        m, n = divmod(int(order[i]), ef.size)
        return float(ef[n] - e0[m])

    return spike_at(mass_tol * total), spike_at((1.0 - mass_tol) * total)


def save_spectra(path, spec: QuenchSpectra) -> None:
    """Binary container: magic, JSON header, little-endian float64 payload."""
    header = {
        "hbar": spec.hbar,
        "h": spec.h,
        "n_sites": spec.n_sites,
        "n0": int(spec.e0.size),
        "nf": int(spec.ef.size),
        "metadata": spec.metadata,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        # On a little-endian machine each array is written from its own
        # memory, without a copy.
        for arr in (spec.e0, spec.ef, spec.transition):
            fh.write(np.ascontiguousarray(arr, "<f8").data)


def export_spectra_csv(directory, spec: QuenchSpectra, manifest_hash: str) -> list[str]:
    """CSV export of the eigenvalues; returns the paths written.

    Each file starts with the ``# manifest_sha256=`` line, like every CSV a
    run writes.  The transition matrix is in the ``save_spectra`` container
    only (``tests/reference.py`` reads it back with ``load_spectra``).
    """
    head = f"# manifest_sha256={manifest_hash}\n"
    paths = []
    for name, arr in (("eigenvalues_initial", spec.e0), ("eigenvalues_final", spec.ef)):
        p = os.path.join(directory, f"{name}.csv")
        with open(p, "w") as fh:
            fh.write(head + "index,energy\n")
            for i, e in enumerate(arr):
                fh.write(f"{i},{float(e)!r}\n")
        paths.append(p)
    return paths
