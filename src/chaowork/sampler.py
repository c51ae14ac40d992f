"""Boltzmann phase-space sampling inside the billiard.

The unperturbed Hamiltonian is H = px^2 + py^2 (mass 1/2), so positions are
uniform over the billiard (rejection from the bounding box) and momentum
components are independent Gaussians with variance 1/(2 beta).  An ensemble
is drawn once, without a temperature: it holds the positions and the
standard normals z, and the momenta at any beta are sqrt(1/(2 beta)) * z.
So every beta shares the positions and the directions of one draw.

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
# Tag 2 is the test oracle's microcanonical shell stream (tests/reference.py).
STREAM_PILOT = 3

_MAX_PROPOSALS = 10_000


class RejectionStall(RuntimeError):
    """Rejection sampling accepted nothing after the proposal budget."""


def momentum_scale(beta: float) -> float:
    """Standard deviation sqrt(1/(2 beta)) of each momentum component."""
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    return math.sqrt(1.0 / (2.0 * beta))


@dataclass(frozen=True)
class ThermalEnsemble:
    """n positions and unit-temperature momenta z, struct of arrays."""

    qs: np.ndarray
    z: np.ndarray
    seed: int

    def __len__(self) -> int:
        return self.qs.shape[0]

    def momenta(self, beta: float) -> np.ndarray:
        """The Boltzmann momenta at inverse temperature beta."""
        return momentum_scale(beta) * self.z


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


def _ensemble_positions(geom: BilliardGeometry, n: int, seed: int) -> np.ndarray:
    """The n positions of the ensemble drawn from seed."""
    qs = np.empty((n, 2))
    for block in range(0, n, SAMPLE_BLOCK):
        hi = min(block + SAMPLE_BLOCK, n)
        rng = block_generator(seed, STREAM_POSITION, block // SAMPLE_BLOCK)
        qs[block:hi] = sample_positions(geom, rng, hi - block)
    return qs


def sample_ensemble(geom: BilliardGeometry, n: int, seed: int) -> ThermalEnsemble:
    """n independent phase points for every beta, reproducible from seed alone."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    qs = _ensemble_positions(geom, n, seed)
    z = np.empty((n, 2))
    for block in range(0, n, SAMPLE_BLOCK):
        hi = min(block + SAMPLE_BLOCK, n)
        rng = block_generator(seed, STREAM_MOMENTUM, block // SAMPLE_BLOCK)
        z[block:hi] = rng.standard_normal((hi - block, 2))
    return ThermalEnsemble(qs=qs, z=z, seed=int(seed))
