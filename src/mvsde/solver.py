"""Interacting-particle explicit scheme on dyadic grids.

Per step the ensemble's empirical law is computed once, before any state
moves; drift and diffusion are then frozen at the left grid point for every
particle.  Running several levels against one Brownian path (synchronous
coupling) makes the inter-level difference a pure discretization error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .measure import EmpiricalMeasure
from .models import CoefficientModel
from .paths import (
    AUX_STREAM_BASE,
    MAX_LATTICE_LEVEL,
    BrownianLattice,
    LatticeError,
    NoiseStreams,
    coarsen,
    make_grid,
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
    "ParticleEnsemble",
    "TrajectorySet",
    "sample_initial",
    "em_run",
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

@dataclass(frozen=True)
class PointMass:
    x0: object = 0.0

    def sample(self, rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
        x0 = np.broadcast_to(np.asarray(self.x0, dtype=np.float64), (dim,))
        return np.tile(x0, (n, 1))

    def mean(self, dim: int) -> np.ndarray:
        return np.broadcast_to(np.asarray(self.x0, dtype=np.float64), (dim,)).copy()

    def second_moment(self, dim: int) -> float:
        m = self.mean(dim)
        return float(np.dot(m, m))


@dataclass(frozen=True)
class GaussianLaw:
    """Gaussian with mean vector and scalar / diagonal / full covariance."""

    mean_vec: object = 0.0
    cov: object = 1.0

    def _factor(self, dim: int) -> np.ndarray:
        cov = np.asarray(self.cov, dtype=np.float64)
        if cov.ndim == 0:
            if cov < 0:
                raise SolverError(f"negative covariance {cov}")
            return math.sqrt(float(cov)) * np.eye(dim)
        if cov.ndim == 1:
            if cov.shape != (dim,) or (cov < 0).any():
                raise SolverError("diagonal covariance must be nonnegative with length d")
            return np.diag(np.sqrt(cov))
        if cov.shape != (dim, dim):
            raise SolverError(f"covariance shape {cov.shape}, expected ({dim}, {dim})")
        sym = 0.5 * (cov + cov.T)
        eigvals, eigvecs = np.linalg.eigh(sym)
        tol = 1e-12 * max(1.0, float(np.abs(eigvals).max()))
        if eigvals.min() < -tol:
            raise SolverError(f"covariance is not positive semidefinite (min eigenvalue {eigvals.min():.3g})")
        return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))

    def sample(self, rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
        factor = self._factor(dim)
        mean = np.broadcast_to(np.asarray(self.mean_vec, dtype=np.float64), (dim,))
        return mean + rng.standard_normal((n, dim)) @ factor.T

    def mean(self, dim: int) -> np.ndarray:
        return np.broadcast_to(np.asarray(self.mean_vec, dtype=np.float64), (dim,)).copy()

    def second_moment(self, dim: int) -> float:
        m = self.mean(dim)
        cov = np.asarray(self.cov, dtype=np.float64)
        if cov.ndim == 0:
            trace = dim * float(cov)
        elif cov.ndim == 1:
            trace = float(cov.sum())
        else:
            trace = float(np.trace(cov))
        return float(np.dot(m, m)) + trace


@dataclass(frozen=True)
class UniformBox:
    lo: object = -1.0
    hi: object = 1.0

    def _bounds(self, dim: int) -> tuple[np.ndarray, np.ndarray]:
        lo = np.broadcast_to(np.asarray(self.lo, dtype=np.float64), (dim,))
        hi = np.broadcast_to(np.asarray(self.hi, dtype=np.float64), (dim,))
        if (hi <= lo).any():
            raise SolverError("uniform box needs lo < hi componentwise")
        return lo, hi

    def sample(self, rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
        lo, hi = self._bounds(dim)
        return rng.uniform(lo, hi, size=(n, dim))

    def mean(self, dim: int) -> np.ndarray:
        lo, hi = self._bounds(dim)
        return 0.5 * (lo + hi)

    def second_moment(self, dim: int) -> float:
        lo, hi = self._bounds(dim)
        mean = 0.5 * (lo + hi)
        var = (hi - lo) ** 2 / 12.0
        return float(np.sum(var + mean**2))


InitialLaw = Union[PointMass, GaussianLaw, UniformBox]


# ---------------------------------------------------------------------------
# ensembles and trajectories
# ---------------------------------------------------------------------------

@dataclass
class ParticleEnsemble:
    states: np.ndarray

    def __post_init__(self) -> None:
        states = np.asarray(self.states, dtype=np.float64)
        if states.ndim != 2:
            raise SolverError(f"states must be (N, d), got shape {states.shape}")
        if not np.isfinite(states).all():
            raise SolverError("non-finite state in ensemble")
        self.states = states

    @property
    def n_particles(self) -> int:
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[1]


@dataclass(frozen=True)
class TrajectorySet:
    """States recorded on a dyadic sub-grid: ``states[j]`` is the ensemble at
    ``times[j]``; metadata carries (model id, seed, N, horizon, levels)."""

    level: int
    times: np.ndarray
    states: np.ndarray
    meta: dict = field(default_factory=dict)

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


def sample_initial(law: InitialLaw, n: int, dim: int, seed: int) -> ParticleEnsemble:
    """N i.i.d. draws from the initial law, deterministic in the seed.

    Uses a counter-based stream in the auxiliary key range so it never
    collides with the per-particle noise streams of the same seed.
    """
    if n < 1 or dim < 1:
        raise SolverError("need at least one particle and one dimension")
    rng = _particle_rng(seed, AUX_STREAM_BASE)
    return ParticleEnsemble(states=law.sample(rng, n, dim))


def _guard(states: np.ndarray, level: int, step: int, time: float) -> None:
    worst = np.abs(states).max()
    if not (worst <= BLOWUP_LIMIT):
        per_particle = np.abs(states).max(axis=1)
        bad = ~np.isfinite(per_particle)
        particle = int(np.nonzero(bad)[0][0]) if bad.any() else int(per_particle.argmax())
        raise BlowUpError(level=level, step=step, time=time, particle=particle, state=states[particle])


def _apply_noise(model, states, mu, incr):
    return np.asarray(model.diffusion_apply(states, mu, incr), dtype=np.float64)


def em_run(
    model: CoefficientModel,
    ensemble: ParticleEnsemble,
    level: int,
    lattice: BrownianLattice,
    record_level: int | None = None,
) -> TrajectorySet:
    """Advance the ensemble over the level-``level`` grid.

    Per cell: freeze the empirical law and the left states, then
    ``X += b(X, mu) * h + sigma(X, mu) @ dW`` for every particle, with the
    cell increment taken from the coarsened lattice.  Recorded states are
    exactly the iterates of this recursion, on the level-``record_level``
    sub-grid (``0 <= record_level <= level``).
    """
    if lattice.level < level:
        raise SolverError(f"lattice level {lattice.level} is coarser than requested level {level}")
    if model.dim != lattice.dim or model.dim != ensemble.dim:
        raise SolverError(
            f"dimension mismatch: model {model.dim}, lattice {lattice.dim}, ensemble {ensemble.dim}"
        )
    if ensemble.n_particles != lattice.n_particles:
        raise SolverError(
            f"particle mismatch: ensemble {ensemble.n_particles}, lattice {lattice.n_particles}"
        )
    if record_level is None:
        record_level = level
    if not (0 <= record_level <= level):
        raise SolverError(f"record level {record_level} outside [0, {level}]")

    grid = make_grid(lattice.horizon, level)
    record_grid = make_grid(lattice.horizon, record_level)
    dw = coarsen(lattice, level)
    h = grid.step
    n, dim = ensemble.n_particles, ensemble.dim
    weights = np.full(n, 1.0 / n)
    stride = 1 << (level - record_level)

    states = ensemble.states.copy()
    out = np.empty((record_grid.num_cells + 1, n, dim))
    out[0] = states
    for i in range(grid.num_cells):
        # later states passed _guard (finite, |x| <= BLOWUP_LIMIT) and are
        # rebound, never written, so only the caller's step-0 states need checks
        mu = EmpiricalMeasure(states, weights, validate=i == 0)
        drift = np.asarray(model.drift(states, mu), dtype=np.float64)
        noise = _apply_noise(model, states, mu, dw[:, i, :])
        states = states + h * drift + noise
        _guard(states, level=level, step=i, time=grid.point(i + 1))
        if (i + 1) % stride == 0:
            out[(i + 1) // stride] = states

    meta = {
        "model_id": model.model_id,
        "seed": lattice.seed,
        "n_particles": n,
        "horizon": lattice.horizon,
        "level": level,
        "record_level": record_level,
    }
    return TrajectorySet(level=level, times=record_grid.points(), states=out, meta=meta)


#: ``em_multilevel`` blocks hold 2^BLOCK_LEVEL finest steps where the record grid allows
BLOCK_LEVEL = 9


def em_multilevel(
    model: CoefficientModel,
    law: InitialLaw,
    seed: int,
    levels: list[int],
    finest: int,
    n_particles: int,
    horizon: float,
    record_level: int | None = None,
    workers: int = 1,
) -> dict[int, TrajectorySet]:
    """Run every requested level plus the finest reference off one Brownian path.

    All levels share the initial ensemble and the Brownian path, and are
    recorded on a common grid (default: the coarsest requested level), so the
    returned trajectories are synchronously coupled.  The reference level
    ``finest`` is included in the result map.

    The path is drawn in time blocks: the 2^c cells of level
    ``c = min(record_level, max(0, finest - BLOCK_LEVEL))``.  Each block's
    finest increments are drawn once; every level is stepped through the
    block by ``em_run`` and carries its final states into the next.  The
    states are the same floats as stepping each level through a whole-path
    lattice, and only one block of increments is held at a time.  A
    ``BlowUpError`` names the first blow-up in block order, on the level's
    own grid from t = 0.
    """
    levels = sorted(set(int(v) for v in levels))
    if not levels:
        raise SolverError("need at least one level")
    if levels[0] < 0:
        raise SolverError("levels must be nonnegative")
    if levels[-1] >= finest:
        raise SolverError(f"max level {levels[-1]} must be below the reference level {finest}")
    if finest > MAX_LATTICE_LEVEL:
        raise LatticeError(f"lattice level {finest} outside the level limit [0, {MAX_LATTICE_LEVEL}]")
    if record_level is None:
        record_level = levels[0]
    if not (0 <= record_level <= levels[0]):
        raise SolverError(f"record level {record_level} outside [0, {levels[0]}]")
    run_levels = [*levels, finest]
    c = min(record_level, max(0, finest - BLOCK_LEVEL))
    block_horizon = horizon / (1 << c)
    streams = NoiseStreams(seed, n_particles)
    ensembles = dict.fromkeys(run_levels, sample_initial(law, n_particles, model.dim, seed))
    recorded: dict[int, list[np.ndarray]] = {lvl: [ensembles[lvl].states[None]] for lvl in run_levels}
    for b in range(1 << c):
        block = sample_lattice(streams, model.dim, finest - c, block_horizon, workers=workers)
        for lvl in run_levels:
            try:
                traj = em_run(model, ensembles[lvl], lvl - c, block, record_level=record_level - c)
            except BlowUpError as err:
                step = (b << (lvl - c)) + err.step
                raise BlowUpError(
                    level=lvl, step=step, time=make_grid(horizon, lvl).point(step + 1),
                    particle=err.particle, state=err.state,
                ) from None
            recorded[lvl].append(traj.states[1:])
            ensembles[lvl] = ParticleEnsemble(traj.states[-1])
        del block  # released before the next block is drawn

    times = make_grid(horizon, record_level).points()
    return {
        lvl: TrajectorySet(
            level=lvl,
            times=times,
            states=np.concatenate(recorded[lvl]),
            meta={
                "model_id": model.model_id,
                "seed": seed,
                "n_particles": n_particles,
                "horizon": horizon,
                "level": lvl,
                "record_level": record_level,
            },
        )
        for lvl in run_levels
    }


def run_single(
    model: CoefficientModel,
    law: InitialLaw,
    seed: int,
    level: int,
    finest: int | None = None,
    n_particles: int = 1000,
    horizon: float = 1.0,
    record_level: int | None = None,
    workers: int = 1,
) -> TrajectorySet:
    """One level against a fresh lattice (finest defaults to the run level)."""
    finest = level if finest is None else finest
    if finest < level:
        raise SolverError(f"finest level {finest} below run level {level}")
    lattice = sample_lattice(NoiseStreams(seed, n_particles), model.dim, finest, horizon, workers=workers)
    ens = sample_initial(law, n_particles, model.dim, seed)
    return em_run(model, ens, level, lattice, record_level=record_level)
