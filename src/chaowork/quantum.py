"""Exact quantum reference on a finite-difference grid.

The kinetic operator for mass 1/2 is -hbar^2 Laplacian, discretized with the
5-point stencil on lattice sites strictly inside the billiard (Dirichlet
zeros outside; the curved arc is a plain staircase, whose bias is policed by
the h^2 convergence test on a rectangle rather than a boundary-fitted
scheme).  The quenched Hamiltonian adds the diagonal xi * V.

From the two eigenbases the module builds the two-point-measurement work
distribution, its characteristic function (an exact Fourier pair before
broadening) and the free-energy identity check.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import eigsh

from . import geometry, spectra
from .characteristic import CharacteristicGrid, _resolve_grid
from .geometry import BilliardGeometry
from .potential import QuenchPotential, evaluate
from .spectra import WorkHistogram

_MAGIC = b"CHWKSPC1"


class GridTooCoarse(ValueError):
    pass


class ConvergenceFailure(RuntimeError):
    pass


class DimensionMismatch(ValueError):
    pass


class TruncationDominates(RuntimeError):
    """The retained basis is too small for this temperature."""


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

    @property
    def n_states(self) -> tuple[int, int]:
        return self.e0.size, self.ef.size


def build_grid(domain, h: float) -> GridSpec:
    """Sites (i h, j h), i, j >= 1, strictly inside ``domain``.

    ``domain`` needs ``contains`` and ``bounding_box``; tests substitute a
    rectangle to compare against analytic spectra.
    """
    if not h > 0.0:
        raise ValueError(f"grid spacing must be positive, got {h}")
    w, hgt = domain.bounding_box
    nx = int(math.ceil(w / h)) - 1
    ny = int(math.ceil(hgt / h)) - 1
    if nx < 1 or ny < 1:
        raise GridTooCoarse(f"no interior sites at h={h}")
    xs = (np.arange(1, nx + 1)) * h
    ys = (np.arange(1, ny + 1)) * h
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    if isinstance(domain, BilliardGeometry):
        inside = geometry.contains_many(domain, pts)
        # Strict interior: drop sites on (or numerically at) the boundary.
        on_edge = (
            (np.abs(pts[:, 1] - domain.r) < 1e-12)
            | (np.abs((pts[:, 0] - domain.l) ** 2 + pts[:, 1] ** 2 - domain.r**2) < 1e-12)
        )
        inside &= ~on_edge
    else:
        inside = np.array([domain.contains(q) for q in pts])
    coords = pts[inside]
    if coords.shape[0] < 100:
        raise GridTooCoarse(f"only {coords.shape[0]} interior sites at h={h}")
    return GridSpec(h=float(h), coords=coords, nx=nx, ny=ny)


def build_hamiltonians(
    geom_or_domain,
    pot: QuenchPotential,
    hbar: float,
    h: float,
) -> tuple[sparse.csr_matrix, sparse.csr_matrix, GridSpec]:
    """Sparse symmetric H(xi_0) and H(xi_f) on the interior lattice."""
    grid = build_grid(geom_or_domain, h)
    n = grid.n_sites
    ij = np.rint(grid.coords / h).astype(np.int64)
    keys = ij[:, 0] * (grid.ny + 2) + ij[:, 1]
    lookup = {int(k): i for i, k in enumerate(keys)}
    scale = hbar * hbar / (h * h)

    rows, cols = [], []
    for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        nb = (ij[:, 0] + dx) * (grid.ny + 2) + (ij[:, 1] + dy)
        for i, k in enumerate(nb):
            j = lookup.get(int(k))
            if j is not None:
                rows.append(i)
                cols.append(j)
    data = np.full(len(rows), -scale)
    lap = sparse.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    kinetic = sparse.diags(np.full(n, 4.0 * scale)) + lap

    v = evaluate(pot, grid.coords)
    h0 = (kinetic + sparse.diags(pot.xi_0 * v)).tocsr() if pot.xi_0 else kinetic.tocsr()
    hf = (kinetic + sparse.diags(pot.xi_f * v)).tocsr() if pot.xi_f else kinetic.tocsr()
    return h0, hf, grid


def eigensolve(
    ham: sparse.spmatrix,
    n_states: int,
    residual_tol: float = 1e-8,
    ortho_tol: float = 1e-10,
) -> tuple[np.ndarray, np.ndarray]:
    """Lowest n_states eigenpairs, verified against the stated residual and
    orthonormality bounds.

    Full-dimension requests use a dense solver; partial ones use shift-invert
    Lanczos from below the Gershgorin lower bound.
    """
    dim = ham.shape[0]
    if n_states > dim:
        raise ValueError(f"requested {n_states} states from dimension {dim}")
    if n_states == dim:
        from scipy.linalg import eigh

        vals, vecs = eigh(np.asarray(ham.todense()))
    else:
        diag = ham.diagonal()
        offsum = np.asarray(np.abs(ham).sum(axis=1)).ravel() - np.abs(diag)
        sigma = float((diag - offsum).min()) - 1.0
        # Deterministic start vector keeps reruns bit-stable.
        v0 = np.full(dim, 1.0 / math.sqrt(dim))
        vals, vecs = eigsh(ham.tocsc(), k=n_states, sigma=sigma, which="LM", v0=v0)
        order = np.argsort(vals)
        vals = vals[order]
        vecs = vecs[:, order]

    norm_bound = float(np.abs(ham).sum(axis=1).max())
    resid = ham @ vecs - vecs * vals
    worst = float(np.sqrt((resid * resid).sum(axis=0)).max())
    if worst > residual_tol * norm_bound:
        raise ConvergenceFailure(f"residual {worst:.3e} exceeds {residual_tol} * |H|")
    gram = vecs.T @ vecs
    ortho = float(np.abs(gram - np.eye(vals.size)).max())
    if ortho > ortho_tol:
        raise ConvergenceFailure(f"orthonormality defect {ortho:.3e}")
    return vals, vecs


def transition_matrix(vecs0: np.ndarray, vecsf: np.ndarray) -> np.ndarray:
    """Squared overlaps: transition[m, n] = (v0_m . vf_n)^2."""
    if vecs0.shape[0] != vecsf.shape[0]:
        raise DimensionMismatch(
            f"eigenvectors live on different grids: {vecs0.shape[0]} vs {vecsf.shape[0]}"
        )
    overlap = vecs0.T @ vecsf
    return overlap * overlap


def solve_quench(
    geom_or_domain,
    pot: QuenchPotential,
    hbar: float,
    h: float,
    n_initial: int | None = None,
    n_final: int | None = None,
) -> QuenchSpectra:
    """Diagonalize both Hamiltonians and assemble the transition matrix.

    None for either count keeps the full grid spectrum (dense solve).
    """
    h0, hf, grid = build_hamiltonians(geom_or_domain, pot, hbar, h)
    dim = grid.n_sites
    n0 = dim if n_initial is None else n_initial
    nf = dim if n_final is None else n_final
    e0, v0 = eigensolve(h0, n0)
    ef, vf = eigensolve(hf, nf)
    t = transition_matrix(v0, vf)
    return QuenchSpectra(
        e0=e0,
        ef=ef,
        transition=t,
        hbar=float(hbar),
        h=grid.h,
        n_sites=dim,
        metadata={"full_spectrum": n0 == dim and nf == dim},
    )


def boltzmann_weights(e0: np.ndarray, beta: float) -> np.ndarray:
    """Normalized exp(-beta E) over the retained initial states (shifted)."""
    w = np.exp(-beta * (e0 - e0.min()))
    return w / w.sum()


def check_truncation(e0: np.ndarray, beta: float, threshold: float = 0.01) -> float:
    """Boltzmann weight of the top decile of retained states; raises when the
    basis is too small for this temperature."""
    w = boltzmann_weights(e0, beta)
    top = w[int(math.floor(0.9 * w.size)) :].sum()
    if top > threshold:
        raise TruncationDominates(
            f"top decile of retained states carries {top:.3g} Boltzmann weight"
        )
    return float(top)


def quantum_work_distribution(
    spec: QuenchSpectra,
    beta: float,
    w_values: np.ndarray,
    broadening: float,
) -> WorkHistogram:
    """Two-point-measurement work distribution binned onto a shared grid.

    The delta spikes at E_f(n) - E_0(m), weighted by the Boltzmann factor of
    m times the transition probability, are broadened with the same Gaussian
    width used for every distribution being compared.
    """
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    check_truncation(spec.e0, beta)
    w = boltzmann_weights(spec.e0, beta)
    masses = (w[:, None] * spec.transition).ravel()
    spikes = (spec.ef[None, :] - spec.e0[:, None]).ravel()
    hist = spectra.spikes_to_histogram(
        spikes,
        masses,
        np.asarray(w_values, dtype=float),
        broadening,
        metadata={"beta": beta, "hbar": spec.hbar, "source": "quantum"},
    )
    return hist


def quantum_characteristic(
    spec: QuenchSpectra,
    beta: float,
    u_grid,
) -> CharacteristicGrid:
    """Exact G(u): thermally weighted transition phases exp(i u (E_f - E_0)).

    Fourier pair of the unbroadened work distribution; deterministic, so the
    stored standard errors are zero.
    """
    u, w_center = _resolve_grid(u_grid)
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    check_truncation(spec.e0, beta)
    w = boltzmann_weights(spec.e0, beta)
    # G(u) = sum_n e^{i u ef_n} sum_m T[m,n] w_m e^{-i u e0_m}
    phase0 = np.exp(np.outer(-1j * u, spec.e0)) * w  # (K, n0)
    inner = phase0 @ spec.transition  # (K, nf)
    g = (inner * np.exp(np.outer(1j * u, spec.ef))).sum(axis=1)
    zeros = np.zeros(u.size)
    return CharacteristicGrid(
        u_values=u,
        g_values=g,
        stderr_re=zeros,
        stderr_im=zeros.copy(),
        n_samples=0,
        hbar=spec.hbar,
        beta=float(beta),
        w_center=w_center,
        metadata={"source": "quantum"},
    )


def quantum_jarzynski(spec: QuenchSpectra, beta: float) -> tuple[float, float]:
    """(lhs, rhs) of the free-energy identity: the two-point-measurement
    average of exp(-beta W) and the retained-spectrum partition ratio.

    Equal exactly at full spectrum; the gap measures truncation otherwise.
    """
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    shift = spec.e0.min()
    bf = np.exp(-beta * (spec.ef - shift))
    z0 = np.exp(-beta * (spec.e0 - shift)).sum()
    lhs = float((spec.transition @ bf).sum() / z0)
    rhs = float(bf.sum() / z0)
    return lhs, rhs


def weyl_level_spacing(geom: BilliardGeometry, hbar: float) -> float:
    """Mean level spacing 4 pi hbar^2 / area for H = -hbar^2 Laplacian."""
    return 4.0 * math.pi * hbar * hbar / geometry.area(geom)


def supported_states(
    geom: BilliardGeometry, h: float, points_per_wavelength: float = 5.0
) -> int:
    """How many low states a grid of spacing h resolves, by the
    points-per-wavelength rule and the area law for the state count."""
    return int(math.pi * geometry.area(geom) / (points_per_wavelength * h) ** 2)


def plan_step_for_states(
    geom: BilliardGeometry,
    n_keep: int,
    keep_ratio: float = 2.24,
    points_per_wavelength: float = 5.0,
) -> float:
    """Grid spacing whose resolved-state count is keep_ratio * n_keep."""
    target = keep_ratio * n_keep
    return math.sqrt(math.pi * geometry.area(geom) / target) / points_per_wavelength


def final_state_count(
    geom: BilliardGeometry,
    pot: QuenchPotential,
    hbar: float,
    e_max: float,
    grid_n: int = 200,
) -> int:
    """Area-law estimate of quenched states below e_max (counts the wells)."""
    w, hgt = geom.bounding_box
    xs = np.linspace(0.0, w, grid_n)
    ys = np.linspace(0.0, hgt, grid_n)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    inside = geometry.contains_many(geom, pts)
    v = evaluate(pot, pts[inside])
    cell = (w / grid_n) * (hgt / grid_n)
    phase_area = np.maximum(e_max - pot.xi_f * v, 0.0).sum() * cell
    return int(phase_area / (4.0 * math.pi * hbar * hbar))


def spike_support(
    spec: QuenchSpectra, beta: float, mass_tol: float = 1e-12
) -> tuple[float, float]:
    """Weighted quantile range of the work spikes containing all but mass_tol."""
    w = boltzmann_weights(spec.e0, beta)
    masses = (w[:, None] * spec.transition).ravel()
    spikes = (spec.ef[None, :] - spec.e0[:, None]).ravel()
    order = np.argsort(spikes)
    cum = np.cumsum(masses[order])
    total = cum[-1]
    lo_i = min(int(np.searchsorted(cum, mass_tol * total)), spikes.size - 1)
    hi_i = min(int(np.searchsorted(cum, (1.0 - mass_tol) * total)), spikes.size - 1)
    return float(spikes[order][lo_i]), float(spikes[order][hi_i])


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
        fh.write(spec.e0.astype("<f8").tobytes())
        fh.write(spec.ef.astype("<f8").tobytes())
        fh.write(spec.transition.astype("<f8").tobytes())


def load_spectra(path) -> QuenchSpectra:
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError(f"not a spectra container: bad magic {magic!r}")
        (hlen,) = struct.unpack("<I", fh.read(4))
        header = json.loads(fh.read(hlen).decode("utf-8"))
        n0, nf = header["n0"], header["nf"]
        e0 = np.frombuffer(fh.read(8 * n0), dtype="<f8").copy()
        ef = np.frombuffer(fh.read(8 * nf), dtype="<f8").copy()
        t = np.frombuffer(fh.read(8 * n0 * nf), dtype="<f8").reshape(n0, nf).copy()
    return QuenchSpectra(
        e0=e0,
        ef=ef,
        transition=t,
        hbar=header["hbar"],
        h=header["h"],
        n_sites=header["n_sites"],
        metadata=header.get("metadata", {}),
    )


def export_spectra_csv(directory, spec: QuenchSpectra, manifest_hash: str) -> list[str]:
    """CSV export of the eigenvalues and the transition matrix.

    Each file starts with the ``# manifest_sha256=`` line, like every CSV a
    run writes.
    """
    import os

    head = f"# manifest_sha256={manifest_hash}\n"
    paths = []
    for name, arr in (("eigenvalues_initial", spec.e0), ("eigenvalues_final", spec.ef)):
        p = os.path.join(directory, f"{name}.csv")
        with open(p, "w") as fh:
            fh.write(head + "index,energy\n")
            for i, e in enumerate(arr):
                fh.write(f"{i},{float(e)!r}\n")
        paths.append(p)
    p = os.path.join(directory, "transition.csv")
    with open(p, "w") as fh:
        fh.write(head + ",".join(f"n{j}" for j in range(spec.ef.size)) + "\n")
        for row in spec.transition:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")
    paths.append(p)
    return paths
