"""Boltzmann phase-space sampling inside the billiard.

The unperturbed Hamiltonian is H = px^2 + py^2 (mass 1/2), so positions are
uniform over the billiard (rejection from the bounding box) and momentum
components are independent Gaussians with variance 1/(2 beta).

Reproducibility discipline: draws are organized in fixed blocks of
SAMPLE_BLOCK samples.  Block b of stream tag t uses the counter-based
generator Philox(SeedSequence(seed, spawn_key=(t, b))), so any number of
workers can generate disjoint blocks concurrently and the result is a pure,
bit-stable function of (seed, n) regardless of scheduling.  Gaussians come
from numpy's ziggurat sampler on that stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .geometry import BilliardGeometry

SAMPLE_BLOCK = 65536

# Stream tags keep different draw purposes on disjoint substreams.
STREAM_POSITION = 0
STREAM_MOMENTUM = 1
STREAM_SHELL = 2
STREAM_PILOT = 3

_MAX_PROPOSALS = 10_000


class RejectionStall(RuntimeError):
    """Rejection sampling accepted nothing after the proposal budget."""


@dataclass(frozen=True)
class ThermalEnsemble:
    """Struct-of-arrays container for n phase points at inverse temperature beta."""

    qs: np.ndarray
    ps: np.ndarray
    beta: float
    seed: int

    def __len__(self) -> int:
        return self.qs.shape[0]


def block_generator(seed: int, stream: int, block: int) -> np.random.Generator:
    """Counter-based generator for one fixed-size block of one stream."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(stream, block))
    return np.random.Generator(np.random.Philox(ss))


def sample_positions(
    geom: BilliardGeometry, rng: np.random.Generator, n: int
) -> np.ndarray:
    """n positions uniform over the billiard, by bounding-box rejection."""
    w, h = geom.bounding_box
    out = np.empty((n, 2))
    filled = 0
    rounds_without_progress = 0
    while filled < n:
        m = n - filled
        props = rng.random((m, 2))
        props[:, 0] *= w
        props[:, 1] *= h
        good = geometry.contains_many(geom, props)
        k = int(good.sum())
        if k == 0:
            rounds_without_progress += 1
            if rounds_without_progress * m >= _MAX_PROPOSALS:
                raise RejectionStall(
                    f"no acceptance in {rounds_without_progress * m} proposals"
                )
            continue
        rounds_without_progress = 0
        out[filled : filled + k] = props[good]
        filled += k
    return out


def sample_momentum(beta: float, rng: np.random.Generator, n: int) -> np.ndarray:
    """n momenta with independent components of variance 1/(2 beta)."""
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    scale = math.sqrt(1.0 / (2.0 * beta))
    return rng.normal(scale=scale, size=(n, 2))


def _ensemble_positions(geom: BilliardGeometry, n: int, seed: int) -> np.ndarray:
    """The n positions of every ensemble drawn from seed, at any beta."""
    qs = np.empty((n, 2))
    for block in range(0, n, SAMPLE_BLOCK):
        hi = min(block + SAMPLE_BLOCK, n)
        rng = block_generator(seed, STREAM_POSITION, block // SAMPLE_BLOCK)
        qs[block:hi] = sample_positions(geom, rng, hi - block)
    return qs


def sample_ensemble(
    geom: BilliardGeometry, beta: float, n: int, seed: int
) -> ThermalEnsemble:
    """n independent Boltzmann phase points, reproducible from seed alone."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    qs = _ensemble_positions(geom, n, seed)
    ps = np.empty((n, 2))
    for block in range(0, n, SAMPLE_BLOCK):
        hi = min(block + SAMPLE_BLOCK, n)
        ps[block:hi] = sample_momentum(
            beta, block_generator(seed, STREAM_MOMENTUM, block // SAMPLE_BLOCK), hi - block
        )
    return ThermalEnsemble(qs=qs, ps=ps, beta=float(beta), seed=int(seed))


def sample_shell(
    geom: BilliardGeometry, energy: float, n: int, seed: int, shell_index: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Microcanonical sample on the shell H = |p|^2 = energy.

    Positions uniform over the billiard, momentum direction uniform on the
    circle, |p| = sqrt(energy).
    """
    if not energy >= 0.0:
        raise ValueError(f"shell energy must be nonnegative, got {energy}")
    qs = np.empty((n, 2))
    ps = np.empty((n, 2))
    pmag = math.sqrt(energy)
    for block in range(0, n, SAMPLE_BLOCK):
        hi = min(block + SAMPLE_BLOCK, n)
        b = block // SAMPLE_BLOCK
        ss = np.random.SeedSequence(
            entropy=int(seed), spawn_key=(STREAM_SHELL, shell_index, b)
        )
        rng = np.random.Generator(np.random.Philox(ss))
        qs[block:hi] = sample_positions(geom, rng, hi - block)
        theta = rng.random(hi - block) * (2.0 * math.pi)
        ps[block:hi, 0] = pmag * np.cos(theta)
        ps[block:hi, 1] = pmag * np.sin(theta)
    return qs, ps
