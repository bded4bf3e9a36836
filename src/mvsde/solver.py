"""Interacting-particle explicit scheme on dyadic grids.

Per step the ensemble's empirical law is computed once, before any state
moves; drift and diffusion are then frozen at the left grid point for every
particle.  Running several levels against one Brownian path (synchronous
coupling) makes the inter-level difference a pure discretization error.

The public way to simulate is the two drivers, ``run_single`` and
``em_multilevel``; both validate their arguments and draw the path the same
way: in time blocks, each reduced once down the ladder of simulated levels
and stepped through at every level, by ``em_run``, before the next block is
drawn.  ``em_run`` is that loop's unchecked stepper: it writes each block's
recorded rows in place into its level's one trajectory array.

The initial ensemble is a plain float64 (N, d) array.  Each initial law checks
its parameters when it is built, and their length, which needs d, when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .measure import EmpiricalMeasure
from .models import CoefficientModel
from .paths import (
    AUX_STREAM_BASE,
    DEFAULT_MEMORY_CAP,
    MAX_LATTICE_LEVEL,
    LatticeError,
    NoiseStreams,
    coarsen,
    sample_lattice,
    _particle_rng,
)

__all__ = [
    "SolverError",
    "BlowUpError",
    "PointMass",
    "GaussianLaw",
    "UniformBox",
    "InitialLaw",
    "TrajectorySet",
    "sample_initial",
    "em_multilevel",
    "run_single",
]

#: abort threshold for any state coordinate
BLOWUP_LIMIT = 1e8


class SolverError(ValueError):
    pass


class BlowUpError(RuntimeError):
    """State left the admissible range; carries level/step/particle diagnostics."""

    def __init__(self, level: int, step: int, time: float, particle: int, state: np.ndarray):
        self.level = level
        self.step = step
        self.time = time
        self.particle = particle
        self.state = np.array(state)
        super().__init__(
            f"blow-up at level {level}, step {step} (t={time:.6g}): particle {particle} "
            f"reached state {self.state}"
        )


# ---------------------------------------------------------------------------
# initial laws
# ---------------------------------------------------------------------------

def _components(law, name: str, dim: int) -> np.ndarray:
    """The law's parameter ``name`` as d components; one number stands for all."""
    value = np.asarray(getattr(law, name), dtype=np.float64)
    if value.ndim > 1 or value.size not in (1, dim):
        raise SolverError(f"{name} has {value.size} components, expected 1 or d = {dim}")
    return np.broadcast_to(value, (dim,))


def _require_finite(law, *names: str) -> None:
    for name in names:
        if not np.isfinite(np.asarray(getattr(law, name), dtype=np.float64)).all():
            raise SolverError(f"{name} must be finite, got {getattr(law, name)}")


@dataclass(frozen=True)
class PointMass:
    x0: object = 0.0

    def __post_init__(self) -> None:
        _require_finite(self, "x0")

    def sample(self, rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
        return np.tile(_components(self, "x0", dim), (n, 1))

    def mean(self, dim: int) -> np.ndarray:
        return _components(self, "x0", dim).copy()

    def second_moment(self, dim: int) -> float:
        m = self.mean(dim)
        return float(np.dot(m, m))


@dataclass(frozen=True)
class GaussianLaw:
    """Gaussian with mean vector and scalar or diagonal covariance."""

    mean_vec: object = 0.0
    cov: object = 1.0

    def __post_init__(self) -> None:
        _require_finite(self, "mean_vec", "cov")
        if np.ndim(self.cov) > 1:
            raise SolverError(f"covariance must be a number or a diagonal, got shape {np.shape(self.cov)}")
        if np.any(np.less(self.cov, 0)):
            raise SolverError(f"covariance must be nonnegative, got {self.cov}")

    def sample(self, rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
        factor = np.diag(np.sqrt(_components(self, "cov", dim)))
        mean = _components(self, "mean_vec", dim)
        return mean + rng.standard_normal((n, dim)) @ factor.T

    def mean(self, dim: int) -> np.ndarray:
        return _components(self, "mean_vec", dim).copy()

    def second_moment(self, dim: int) -> float:
        m = self.mean(dim)
        trace = dim * float(self.cov) if np.ndim(self.cov) == 0 else float(_components(self, "cov", dim).sum())
        return float(np.dot(m, m)) + trace


@dataclass(frozen=True)
class UniformBox:
    lo: object = -1.0
    hi: object = 1.0

    def __post_init__(self) -> None:
        _require_finite(self, "lo", "hi")
        if np.size(self.lo) != np.size(self.hi) and 1 not in (np.size(self.lo), np.size(self.hi)):
            raise SolverError(f"lo has {np.size(self.lo)} components and hi {np.size(self.hi)}")
        if np.any(np.less_equal(self.hi, self.lo)):
            raise SolverError("uniform box needs lo < hi componentwise")

    def sample(self, rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
        return rng.uniform(_components(self, "lo", dim), _components(self, "hi", dim), size=(n, dim))

    def mean(self, dim: int) -> np.ndarray:
        return 0.5 * (_components(self, "lo", dim) + _components(self, "hi", dim))

    def second_moment(self, dim: int) -> float:
        lo, hi = _components(self, "lo", dim), _components(self, "hi", dim)
        mean = 0.5 * (lo + hi)
        var = (hi - lo) ** 2 / 12.0
        return float(np.sum(var + mean**2))


InitialLaw = Union[PointMass, GaussianLaw, UniformBox]


# ---------------------------------------------------------------------------
# ensembles and trajectories
# ---------------------------------------------------------------------------

# only em_run's carrier: mvbench/spans.py reads its ``ensemble.n_particles``
@dataclass
class ParticleEnsemble:
    states: np.ndarray

    @property
    def n_particles(self) -> int:
        return self.states.shape[0]


@dataclass(frozen=True)
class TrajectorySet:
    """States recorded on a dyadic sub-grid: ``states[j]`` is the ensemble at
    ``times[j]``."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=np.float64)
        states = np.asarray(self.states, dtype=np.float64)
        if states.ndim != 3 or times.ndim != 1 or states.shape[0] != times.shape[0]:
            raise SolverError(
                f"trajectory shapes inconsistent: times {times.shape}, states {states.shape}"
            )
        if not np.isfinite(states).all():
            raise SolverError("non-finite value in recorded trajectory")
        times.flags.writeable = False
        states.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    @property
    def n_particles(self) -> int:
        return self.states.shape[1]

    @property
    def dim(self) -> int:
        return self.states.shape[2]


def sample_initial(law: InitialLaw, n: int, dim: int, seed: int) -> np.ndarray:
    """N i.i.d. draws from the initial law as a float64 (N, d) array,
    deterministic in the seed.

    Uses a counter-based stream in the auxiliary key range so it never
    collides with the per-particle noise streams of the same seed.  A draw
    with a coordinate beyond ``BLOWUP_LIMIT`` is refused: the law, not the
    scheme, put that particle out of range.
    """
    if n < 1 or dim < 1:
        raise SolverError("need at least one particle and one dimension")
    rng = _particle_rng(seed, AUX_STREAM_BASE)
    states = law.sample(rng, n, dim)
    beyond = ~(np.abs(states) <= BLOWUP_LIMIT).all(axis=1)
    if beyond.any():
        p = int(beyond.argmax())
        raise SolverError(f"initial law drew particle {p} at {states[p]}, beyond the blow-up limit {BLOWUP_LIMIT:g}")
    return states


def _guard(states: np.ndarray, level: int, step: int, time: float) -> None:
    # NaN fails both comparisons; no |states| copy on the passing path
    if not (-BLOWUP_LIMIT <= states.min() and states.max() <= BLOWUP_LIMIT):
        per_particle = np.abs(states).max(axis=1)
        bad = ~np.isfinite(per_particle)
        particle = int(np.nonzero(bad)[0][0]) if bad.any() else int(per_particle.argmax())
        raise BlowUpError(level=level, step=step, time=time, particle=particle, state=states[particle])


# mvbench/spans.py wraps ``em_run`` by name and binds its ``level`` and
# ``ensemble`` arguments to count steps, so both keep their names
def em_run(model: CoefficientModel, ensemble: ParticleEnsemble, level: int, increments: np.ndarray,
           horizon: float, out: np.ndarray) -> None:
    """Step the ensemble over the level-``level`` grid of [0, horizon].

    ``increments`` holds the Brownian increments of that grid's own cells,
    shape (N, 2^level, d): row p, cell i is particle p's W(t_{i+1}) - W(t_i).
    Per cell: freeze the empirical law and the left states, then
    ``X += b(X, mu) * h + sigma(X, mu) @ dW`` for every particle.  Recorded
    states are exactly the iterates of this recursion, on the sub-grid of
    ``out.shape[0] - 1`` cells; rows 1.. of ``out`` receive them.

    The block loop is the one caller, and it guarantees what is not checked
    here: ``out`` is float64 of shape (2^r + 1, N, d) for some r <= level,
    with the ensemble's states in row 0; ``increments`` matches the ensemble
    and the model; the horizon is positive and finite; and the states are
    finite and within ``BLOWUP_LIMIT``.  They are rebound each step, never
    written.
    """
    h = horizon / (1 << level)
    stride = (1 << level) // (out.shape[0] - 1)

    states = ensemble.states
    for i in range(1 << level):
        mu = EmpiricalMeasure(states)
        drift = np.asarray(model.drift(states, mu), dtype=np.float64)
        noise = np.asarray(model.diffusion_apply(states, mu, increments[:, i, :]), dtype=np.float64)
        states = states + h * drift + noise
        _guard(states, level=level, step=i, time=(i + 1) * h)
        if (i + 1) % stride == 0:
            out[(i + 1) // stride] = states


#: blocks hold 2^BLOCK_LEVEL finest steps where the record grid allows
BLOCK_LEVEL = 9


def _em_blocks(model: CoefficientModel, law: InitialLaw, seed: int, run_levels: list[int], finest: int,
               n_particles: int, horizon: float, record_level: int) -> dict[int, TrajectorySet]:
    """Step every level of ``run_levels`` (none above ``finest``) off one
    level-``finest`` Brownian path, drawn in time blocks.

    The blocks are the 2^c cells of level
    ``c = min(record_level, max(0, finest - BLOCK_LEVEL))``.  Each block's
    finest increments are drawn once (the last block marked ``last``, so the
    draw skips reading the stream positions back) and reduced once down the
    sorted level ladder, each level's increments summed from the next finer
    level's;
    coarsening is one fixed tree of sums, so these are the bits of reducing
    the whole path from the finest level.  Each level's trajectory is
    allocated once; ``em_run`` steps the level through a block starting from
    the record row the block begins on and writes the block's rows in place.
    So the states are the same floats as stepping the whole path at once, and
    the peak memory is the returned trajectories plus one block of
    increments.  A ``BlowUpError`` names the first blow-up in block order, on
    the level's own grid from t = 0.  ``DEFAULT_MEMORY_CAP`` bounds the
    returned trajectories as well as each block; a request above it is
    refused before anything is drawn.
    """
    if finest > MAX_LATTICE_LEVEL:
        raise LatticeError(f"lattice level {finest} outside the level limit [0, {MAX_LATTICE_LEVEL}]")
    if not (0 <= record_level <= min(run_levels)):
        raise SolverError(f"record level {record_level} outside [0, {min(run_levels)}]")
    nbytes = len(run_levels) * ((1 << record_level) + 1) * n_particles * model.dim * 8
    if nbytes > DEFAULT_MEMORY_CAP:
        raise SolverError(
            f"recorded trajectories need {nbytes} bytes, above the memory limit of {DEFAULT_MEMORY_CAP} bytes"
        )
    ladder = sorted(run_levels, reverse=True)
    c = min(record_level, max(0, finest - BLOCK_LEVEL))
    block_horizon = horizon / (1 << c)
    block_rows = 1 << (record_level - c)
    streams = NoiseStreams(seed, n_particles)
    initial = sample_initial(law, n_particles, model.dim, seed)
    recorded = {lvl: np.empty(((1 << record_level) + 1, n_particles, model.dim)) for lvl in ladder}
    for states in recorded.values():
        states[0] = initial
    for b in range(1 << c):
        increments = sample_lattice(streams, model.dim, finest - c, block_horizon,
                                    last=b == (1 << c) - 1).increments
        for lvl in ladder:
            # rebinding releases the finer level's array
            increments = coarsen(increments, lvl - c)
            block = recorded[lvl][b * block_rows:(b + 1) * block_rows + 1]
            try:
                em_run(model, ParticleEnsemble(block[0]), lvl - c, increments, block_horizon, block)
            except BlowUpError as err:
                step = (b << (lvl - c)) + err.step
                raise BlowUpError(
                    level=lvl, step=step, time=(step + 1) * (horizon / (1 << lvl)),
                    particle=err.particle, state=err.state,
                ) from None
        del increments  # released before the next block is drawn

    # t_i = i * (T / 2^r): dividing by a power of two is exact
    times = np.arange((1 << record_level) + 1, dtype=np.float64) * (horizon / (1 << record_level))
    return {lvl: TrajectorySet(times=times, states=recorded[lvl]) for lvl in run_levels}


def em_multilevel(
    model: CoefficientModel,
    law: InitialLaw,
    seed: int,
    levels: list[int],
    finest: int,
    n_particles: int,
    horizon: float,
    record_level: int | None = None,
) -> dict[int, TrajectorySet]:
    """Run every requested level plus the finest reference off one Brownian path.

    All levels share the initial ensemble and the Brownian path, and are
    recorded on a common grid (default: the coarsest requested level), so the
    returned trajectories are synchronously coupled.  The reference level
    ``finest`` is included in the result map.  The path is streamed in time
    blocks, each reduced once down the levels, by the loop that also serves
    ``run_single``.
    """
    levels = sorted(set(int(v) for v in levels))
    if not levels:
        raise SolverError("need at least one level")
    if levels[0] < 0:
        raise SolverError("levels must be nonnegative")
    if levels[-1] >= finest:
        raise SolverError(f"max level {levels[-1]} must be below the reference level {finest}")
    record_level = levels[0] if record_level is None else record_level
    return _em_blocks(model, law, seed, [*levels, finest], finest, n_particles, horizon, record_level)


def run_single(
    model: CoefficientModel,
    law: InitialLaw,
    seed: int,
    level: int,
    finest: int | None = None,
    n_particles: int = 1000,
    horizon: float = 1.0,
    record_level: int | None = None,
) -> TrajectorySet:
    """One level, driven by a level-``finest`` Brownian path (finest defaults
    to the run level), recorded at ``record_level`` (default: every step).

    The path is streamed in time blocks through the same loop as
    ``em_multilevel``, so ``DEFAULT_MEMORY_CAP`` bounds one block here too.
    """
    finest = level if finest is None else finest
    if finest < level:
        raise SolverError(f"finest level {finest} below run level {level}")
    record_level = level if record_level is None else record_level
    return _em_blocks(model, law, seed, [level], finest, n_particles, horizon, record_level)[level]
