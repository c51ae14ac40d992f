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
# (x, y) proposal pairs a rejection round tests at once.
PROPOSAL_PIECE = 8192

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
    """n positions uniform over the billiard, by bounding-box rejection.

    Each round proposes as many points as are still missing.  It reads them
    from the stream in pieces of PROPOSAL_PIECE (x, y) pairs, the stream an
    (m, 2) array of uniforms would take; each piece's x and y are scaled,
    tested and compressed as two contiguous columns, and its accepted pairs
    fill the next rows in order.  So a round holds no temporary longer than
    a piece, and the draw has the bits of one (m, 2) read per round.
    """
    w, h = geom.bounding_box
    out = np.empty((n, 2))
    filled = 0
    rounds_without_progress = 0
    while filled < n:
        m = n - filled
        for lo in range(0, m, PROPOSAL_PIECE):
            props = rng.random((min(PROPOSAL_PIECE, m - lo), 2))
            x = props[:, 0] * w
            y = props[:, 1] * h
            good = geometry.contains_xy(geom, x, y)
            x = x[good]
            k = x.size
            out[filled : filled + k, 0] = x
            out[filled : filled + k, 1] = y[good]
            filled += k
        if filled > n - m:
            rounds_without_progress = 0
            continue
        rounds_without_progress += 1
        if rounds_without_progress * m >= _MAX_PROPOSALS:
            raise RejectionStall(f"no acceptance in {rounds_without_progress * m} proposals")
    return out


def _position_blocks(geom: BilliardGeometry, n: int, seed: int):
    """The ensemble's n positions for seed, one SAMPLE_BLOCK at a time, as
    (first row, positions) pairs."""
    for lo in range(0, n, SAMPLE_BLOCK):
        rng = block_generator(seed, STREAM_POSITION, lo // SAMPLE_BLOCK)
        yield lo, sample_positions(geom, rng, min(SAMPLE_BLOCK, n - lo))


def sample_ensemble(geom: BilliardGeometry, n: int, seed: int) -> ThermalEnsemble:
    """n independent phase points for every beta, reproducible from seed alone."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    qs = np.empty((n, 2))
    for lo, block in _position_blocks(geom, n, seed):
        qs[lo : lo + len(block)] = block
    z = np.empty((n, 2))
    for block in range(0, n, SAMPLE_BLOCK):
        hi = min(block + SAMPLE_BLOCK, n)
        rng = block_generator(seed, STREAM_MOMENTUM, block // SAMPLE_BLOCK)
        z[block:hi] = rng.standard_normal((hi - block, 2))
    return ThermalEnsemble(qs=qs, z=z, seed=int(seed))
