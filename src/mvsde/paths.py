"""Dyadic time grids and refinement-consistent Brownian increments.

One finest-level increment array drives every discretization level of a
coupled experiment.  Coarser increments are produced by adjacent-pair tree
reduction, so a level-n increment is literally a node of one fixed addition
tree over the finest increments: coarsening commutes with itself bit-exactly
(L -> n -> m performs the identical float additions as L -> m).

Increments are a pure function of (seed, particle, step, dim) through a
counter-based generator keyed per particle, so a particle's row depends on
neither the particle count nor the parallel schedule.
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
    """Finest-level increments for all particles: shape (N, 2^level, dim),
    each entry Normal(0, horizon / 2^level)."""

    seed: int
    n_particles: int
    dim: int
    level: int
    horizon: float
    increments: np.ndarray

    def __post_init__(self) -> None:
        if self.n_particles < 1 or self.dim < 1:
            raise LatticeError("need at least one particle and one dimension")
        if not (0 <= self.level <= MAX_LATTICE_LEVEL):
            raise LatticeError(f"lattice level must lie in [0, {MAX_LATTICE_LEVEL}], got {self.level}")
        if not (np.isfinite(self.horizon) and self.horizon > 0):
            raise LatticeError(f"horizon must be positive and finite, got {self.horizon}")
        expected = (self.n_particles, 1 << self.level, self.dim)
        arr = np.asarray(self.increments, dtype=np.float64)
        if arr.shape != expected:
            raise LatticeError(f"increments shape {arr.shape}, expected {expected}")
        arr.flags.writeable = False
        object.__setattr__(self, "increments", arr)


def _particle_rng(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_lattice(
    seed: int,
    n_particles: int,
    dim: int,
    level: int,
    horizon: float,
    workers: int = 1,
) -> BrownianLattice:
    """Draw the finest-level increment array.

    Deterministic in (seed, particle, step, dim) and independent of
    ``workers``: every particle row comes from its own keyed counter-based
    stream and is written to a disjoint slice.  At most ``os.cpu_count()``
    threads run, whatever ``workers`` asks for.
    """
    if n_particles < 1 or dim < 1:
        raise LatticeError("need at least one particle and one dimension")
    if not (0 <= level <= MAX_LATTICE_LEVEL):
        raise LatticeError(f"lattice level {level} outside the level limit [0, {MAX_LATTICE_LEVEL}]")
    steps = 1 << level
    nbytes = n_particles * steps * dim * 8
    if nbytes > DEFAULT_MEMORY_CAP:
        raise LatticeError(
            f"lattice would need {nbytes} bytes, above the memory limit of {DEFAULT_MEMORY_CAP} bytes"
        )
    scale = np.sqrt(horizon / steps)
    out = np.empty((n_particles, steps, dim))

    def fill(lo: int, hi: int) -> None:
        for p in range(lo, hi):
            out[p] = _particle_rng(seed, p).standard_normal((steps, dim))

    workers = min(workers, os.cpu_count() or 1)
    if workers > 1 and n_particles > 1:
        n_chunks = min(workers * 4, n_particles)
        bounds = np.linspace(0, n_particles, n_chunks + 1, dtype=int)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(fill, int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]
            for fut in futures:
                fut.result()
    else:
        fill(0, n_particles)
    out *= scale
    return BrownianLattice(
        seed=seed, n_particles=n_particles, dim=dim, level=level, horizon=horizon, increments=out
    )


def _halve_cells(arr: np.ndarray) -> np.ndarray:
    # adjacent-pair reduction along the step axis, left child first
    return arr[:, 0::2, :] + arr[:, 1::2, :]


def coarsen(lattice: BrownianLattice, level: int) -> np.ndarray:
    """Increments at a coarser level: cell j is the tree sum of its children.

    Returns a fresh (N, 2^level, dim) array.  Because each halving adds
    adjacent pairs, any two routes to the same coarse level perform the
    identical additions, so cross-level sums agree bit for bit.
    """
    if not (0 <= level <= lattice.level):
        raise LatticeError(f"target level {level} outside [0, {lattice.level}]")
    arr = lattice.increments
    for _ in range(lattice.level - level):
        arr = _halve_cells(arr)
    if arr is lattice.increments:
        arr = lattice.increments.copy()
    return arr
