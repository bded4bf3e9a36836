"""Refinement-consistent Brownian increments on dyadic time grids.

This is the unchecked machinery of the drivers' block loop, which checks every
argument and memory bound first; the one guard left here is
``NoiseStreams.spent``, against replaying a spent stream.

The level-n grid of [0, T] is t_i = i * (T / 2^n); callers compute its
points from the level and the horizon.  Every discretization level of a
coupled experiment is driven by one Brownian path on the finest grid.
Coarser increments are produced by adjacent-pair tree reduction, so a
level-n increment is literally a node of one fixed addition tree over the
finest increments: coarsening commutes with itself bit-exactly (L -> n -> m
performs the identical float additions as L -> m).  ``coarsen`` allocates
only the target level: it halves a cache-sized chunk of particle rows at a
time and writes the chunk's last halving into the result.  No halving mixes
particles, so the chunks perform the additions of halving the whole array.

Increments are a pure function of (seed, particle, step, dim) through a
counter-based generator keyed by (seed, particle), so a particle's row does
not depend on the particle count.  Seeds must lie in [0, 2^64): a key word
holds 64 bits, and a seed outside them would replay another seed's bytes.
``NoiseStreams`` records where each particle's stream stands, so the finest
increments can be drawn in time blocks: consecutive ``sample_lattice`` calls
continue every stream, and the blocks concatenate to the single draw bit for
bit.  A block that starts on a grid point of a coarser level holds whole
subtrees of the coarsening tree, so its tree sums are the global ones.

The draw is one serial loop over the particles.  It holds the GIL while it
moves one Philox state from particle to particle, so worker threads would
only add overhead.  Each particle's state is set from plain Python ints, one
particle's rows at a time, which the Philox setter reads about twice as fast
as numpy scalars.  The block a caller marks as its last skips reading the
positions back, since no later block needs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["LatticeError"]

#: second key word reserved for non-noise streams (initial-ensemble sampling)
AUX_STREAM_BASE = 1 << 63

MAX_LATTICE_LEVEL = 30


class LatticeError(ValueError):
    pass


@dataclass(frozen=True)
class BrownianLattice:
    """Finest-level increments for all particles: a read-only array of shape
    (N, 2^level, dim), each entry Normal(0, horizon / 2^level)."""

    increments: np.ndarray


def _particle_rng(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class NoiseStreams:
    """Where every particle's noise stream stands, one row per particle.

    Particle p draws from a Philox generator keyed by ``(seed, p)``; its
    position is the Philox counter (``counter``, (N, 4)), the four words
    generated but not yet used (``buffer``, (N, 4)) and how many of those
    are used (``buffer_pos``, (N,); 4 means none is left).  New streams
    start at the beginning.  Normal draws read only whole 64-bit words, so
    these three arrays are the whole position.  They take
    ``POSITION_BYTES`` per particle; the block loop bounds their total
    before it builds the streams.
    """

    #: bytes of one particle's position: counter, buffer and buffer_pos
    POSITION_BYTES = 4 * 8 + 4 * 8 + 8

    def __init__(self, seed: int, n_particles: int) -> None:
        self.seed = seed
        self.counter = np.zeros((n_particles, 4), dtype=np.uint64)
        self.buffer = np.zeros((n_particles, 4), dtype=np.uint64)
        self.buffer_pos = np.full(n_particles, 4, dtype=np.int64)
        self.spent = False

    @property
    def n_particles(self) -> int:
        return self.buffer_pos.shape[0]

    def draw(self, out: np.ndarray, last: bool = False) -> None:
        """Continue every stream: row p of ``out`` gets particle p's next
        ``out[p].size`` standard normals.

        ``out`` is a C-contiguous float64 array with one row per particle.
        After a ``last`` draw the positions are not read back, so the streams
        are spent and a further draw raises ``LatticeError``.
        """
        if self.spent:
            raise LatticeError("the noise streams are spent: their last block was drawn")
        # one generator whose state is moved from particle to particle; the
        # setter reads plain ints about twice as fast as numpy scalars
        bitgen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
        gen = np.random.Generator(bitgen)
        state = bitgen.state
        philox = state["state"]
        rows = zip(out, self.counter, self.buffer, self.buffer_pos)
        for p, (row, counter, buffer, pos) in enumerate(rows):
            philox["key"] = (self.seed, p)
            philox["counter"] = counter.tolist()
            state["buffer"] = buffer.tolist()
            state["buffer_pos"] = int(pos)
            bitgen.state = state
            gen.standard_normal(out=row)
            if not last:
                after = bitgen.state
                counter[:] = after["state"]["counter"]
                buffer[:] = after["buffer"]
                self.buffer_pos[p] = after["buffer_pos"]
        self.spent = last


def sample_lattice(
    streams: NoiseStreams,
    dim: int,
    level: int,
    horizon: float,
    last: bool = False,
) -> BrownianLattice:
    """Draw the next 2^level increments of every particle's stream.

    The lattice covers a time span of ``horizon`` on its own level-``level``
    grid, so each entry is Normal(0, horizon / 2^level).  Drawing [0, T] in
    2^k calls of level ``L - k`` and horizon ``T / 2^k`` gives, concatenated,
    the bytes of one call of level ``L`` and horizon ``T`` (a division by a
    power of two is exact, so the scale is the same float).

    Deterministic in (seed, particle, step, dim): every particle row comes
    from its own keyed counter-based stream.  ``last`` says no block follows:
    the draw then skips reading the stream positions back, and the streams
    are spent (see ``NoiseStreams.draw``).  Unchecked: the block loop has
    bounded the dimension, the level, the horizon and the array's bytes.
    """
    steps = 1 << level
    scale = np.sqrt(horizon / steps)
    out = np.empty((streams.n_particles, steps, dim))
    streams.draw(out, last)
    out *= scale
    out.flags.writeable = False
    return BrownianLattice(out)


#: input float64 elements per coarsening chunk (256 KiB), so a chunk's
#: intermediate halvings stay in cache and only the target level is allocated
COARSEN_CHUNK = 1 << 15


def _halve_cells(arr: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # adjacent-pair reduction along the step axis, left child first
    return np.add(arr[:, 0::2, :], arr[:, 1::2, :], out=out)


def coarsen(increments: np.ndarray, level: int) -> np.ndarray:
    """Increments at a coarser level: cell j is the tree sum of its children.

    ``increments`` is an (N, 2^k, dim) array of level-k cells, ``level`` in
    [0, k] (unchecked); the result is (N, 2^level, dim), fresh unless
    ``level`` is k, when ``increments`` itself is returned.  Because each halving adds adjacent
    pairs, any two routes to the same coarse level perform the identical
    additions, so cross-level sums agree bit for bit.

    The result is the only array allocated at full size: it is filled one
    chunk of whole particle rows at a time (about ``COARSEN_CHUNK`` input
    elements, at least one row), each chunk halved down to the target and its
    last halving written in place.  Particles never mix in a halving, so every
    cell is the same tree of additions as halving the whole array at once and
    the bits do not change.
    """
    halvings = increments.shape[1].bit_length() - 1 - level
    if halvings == 0:
        return increments
    n_particles = increments.shape[0]
    out = np.empty((n_particles, 1 << level, *increments.shape[2:]), dtype=increments.dtype)
    rows = max(1, COARSEN_CHUNK // max(1, math.prod(increments.shape[1:])))
    for start in range(0, n_particles, rows):
        chunk = increments[start:start + rows]
        for _ in range(halvings - 1):
            chunk = _halve_cells(chunk)
        _halve_cells(chunk, out=out[start:start + rows])
    return out
