"""Dyadic time grids and refinement-consistent Brownian increments.

Every discretization level of a coupled experiment is driven by one Brownian
path on the finest grid.  Coarser increments are produced by adjacent-pair
tree reduction, so a level-n increment is literally a node of one fixed
addition tree over the finest increments: coarsening commutes with itself
bit-exactly (L -> n -> m performs the identical float additions as L -> m).

Increments are a pure function of (seed, particle, step, dim) through a
counter-based generator keyed per particle, so a particle's row depends on
neither the particle count nor the parallel schedule.  ``NoiseStreams``
records where each particle's stream stands, so the finest increments can be
drawn in time blocks: consecutive ``sample_lattice`` calls continue every
stream, and the blocks concatenate to the single draw bit for bit.  A block
that starts on a grid point of a coarser level holds whole subtrees of the
coarsening tree, so its tree sums are the global ones.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridError",
    "LatticeError",
    "DyadicGrid",
    "make_grid",
    "BrownianLattice",
    "NoiseStreams",
    "sample_lattice",
    "coarsen",
]

_MASK64 = (1 << 64) - 1

#: second key word reserved for non-noise streams (initial-ensemble sampling)
AUX_STREAM_BASE = 1 << 63

MAX_GRID_LEVEL = 62
MAX_LATTICE_LEVEL = 30
DEFAULT_MEMORY_CAP = 2**31  # bytes


class GridError(ValueError):
    pass


class LatticeError(ValueError):
    pass


@dataclass(frozen=True)
class DyadicGrid:
    """Uniform grid t_i = i * T / 2^level on [0, T]."""

    horizon: float
    level: int

    def __post_init__(self) -> None:
        if not (np.isfinite(self.horizon) and self.horizon > 0):
            raise GridError(f"horizon must be positive and finite, got {self.horizon}")
        if not (0 <= self.level <= MAX_GRID_LEVEL):
            raise GridError(f"level must lie in [0, {MAX_GRID_LEVEL}], got {self.level}")

    @property
    def num_cells(self) -> int:
        return 1 << self.level

    @property
    def step(self) -> float:
        # division by a power of two is exact in binary floating point
        return self.horizon / self.num_cells

    def point(self, i: int) -> float:
        if not (0 <= i <= self.num_cells):
            raise GridError(f"index {i} outside [0, {self.num_cells}]")
        return i * self.step

    def points(self) -> np.ndarray:
        if self.level > MAX_LATTICE_LEVEL:
            raise GridError(f"refusing to materialize 2^{self.level} + 1 points")
        pts = np.arange(self.num_cells + 1, dtype=np.float64) * self.step
        pts.flags.writeable = False
        return pts


def make_grid(horizon: float, level: int) -> DyadicGrid:
    return DyadicGrid(horizon=float(horizon), level=int(level))


@dataclass(frozen=True)
class BrownianLattice:
    """Finest-level increments for all particles: a read-only array of shape
    (N, 2^level, dim), each entry Normal(0, horizon / 2^level)."""

    increments: np.ndarray


def _particle_rng(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class NoiseStreams:
    """Where every particle's noise stream stands, one row per particle.

    Particle p draws from a Philox generator keyed by ``(seed, p)``; its
    position is the Philox counter (``counter``, (N, 4)), the four words
    generated but not yet used (``buffer``, (N, 4)) and how many of those
    are used (``buffer_pos``, (N,); 4 means none is left).  New streams
    start at the beginning.  Normal draws read only whole 64-bit words, so
    these three arrays are the whole position.
    """

    def __init__(self, seed: int, n_particles: int) -> None:
        if n_particles < 1:
            raise LatticeError("need at least one particle and one dimension")
        self.seed = seed
        self.counter = np.zeros((n_particles, 4), dtype=np.uint64)
        self.buffer = np.zeros((n_particles, 4), dtype=np.uint64)
        self.buffer_pos = np.full(n_particles, 4, dtype=np.int64)

    @property
    def n_particles(self) -> int:
        return self.buffer_pos.shape[0]

    def draw(self, out: np.ndarray, lo: int, hi: int) -> None:
        """Continue the streams of particles ``lo..hi-1``: row p of ``out``
        gets particle p's next ``out[p].size`` standard normals."""
        # one generator whose state is moved from particle to particle
        bitgen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
        gen = np.random.Generator(bitgen)
        state = bitgen.state
        keys = np.empty((hi - lo, 2), dtype=np.uint64)
        keys[:, 0] = self.seed & _MASK64
        keys[:, 1] = np.arange(lo, hi, dtype=np.uint64)
        for p in range(lo, hi):
            state["state"]["key"] = keys[p - lo]
            state["state"]["counter"] = self.counter[p]
            state["buffer"] = self.buffer[p]
            state["buffer_pos"] = int(self.buffer_pos[p])
            bitgen.state = state
            gen.standard_normal(out=out[p])
            after = bitgen.state
            self.counter[p] = after["state"]["counter"]
            self.buffer[p] = after["buffer"]
            self.buffer_pos[p] = after["buffer_pos"]


def sample_lattice(
    streams: NoiseStreams,
    dim: int,
    level: int,
    horizon: float,
    workers: int = 1,
) -> BrownianLattice:
    """Draw the next 2^level increments of every particle's stream.

    The lattice covers a time span of ``horizon`` on its own level-``level``
    grid, so each entry is Normal(0, horizon / 2^level).  Drawing [0, T] in
    2^k calls of level ``L - k`` and horizon ``T / 2^k`` gives, concatenated,
    the bytes of one call of level ``L`` and horizon ``T`` (a division by a
    power of two is exact, so the scale is the same float).

    Deterministic in (seed, particle, step, dim) and independent of
    ``workers``: every particle row comes from its own keyed counter-based
    stream and is written to a disjoint slice.  At most ``os.cpu_count()``
    threads run, whatever ``workers`` asks for.  ``DEFAULT_MEMORY_CAP``
    bounds the bytes of the returned array.
    """
    n_particles = streams.n_particles
    if dim < 1:
        raise LatticeError("need at least one particle and one dimension")
    if not (0 <= level <= MAX_LATTICE_LEVEL):
        raise LatticeError(f"lattice level {level} outside the level limit [0, {MAX_LATTICE_LEVEL}]")
    if not (np.isfinite(horizon) and horizon > 0):
        raise LatticeError(f"horizon must be positive and finite, got {horizon}")
    steps = 1 << level
    nbytes = n_particles * steps * dim * 8
    if nbytes > DEFAULT_MEMORY_CAP:
        raise LatticeError(
            f"lattice would need {nbytes} bytes, above the memory limit of {DEFAULT_MEMORY_CAP} bytes"
        )
    scale = np.sqrt(horizon / steps)
    out = np.empty((n_particles, steps, dim))

    workers = min(workers, os.cpu_count() or 1)
    if workers > 1 and n_particles > 1:
        n_chunks = min(workers * 4, n_particles)
        bounds = np.linspace(0, n_particles, n_chunks + 1, dtype=int)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(streams.draw, out, int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])
            ]
            for fut in futures:
                fut.result()
    else:
        streams.draw(out, 0, n_particles)
    out *= scale
    out.flags.writeable = False
    return BrownianLattice(out)


def _halve_cells(arr: np.ndarray) -> np.ndarray:
    # adjacent-pair reduction along the step axis, left child first
    return arr[:, 0::2, :] + arr[:, 1::2, :]


def coarsen(increments: np.ndarray, level: int) -> np.ndarray:
    """Increments at a coarser level: cell j is the tree sum of its children.

    ``increments`` is an (N, 2^k, dim) array of level-k cells, ``level`` at
    most k; the result is (N, 2^level, dim), fresh unless ``level`` is k, when
    ``increments`` itself is returned.  Because each halving adds adjacent
    pairs, any two routes to the same coarse level perform the identical
    additions, so cross-level sums agree bit for bit.
    """
    steps = increments.shape[1]
    if steps & (steps - 1) or not (0 <= level < steps.bit_length()):
        raise LatticeError(f"cannot coarsen {steps} cells to level {level}")
    for _ in range(steps.bit_length() - 1 - level):
        increments = _halve_cells(increments)
    return increments
