"""Interacting-particle explicit scheme on dyadic grids.

Per step the ensemble's empirical law is computed once, before any state
moves; drift and diffusion are then frozen at the left grid point for every
particle.  Running several levels against one Brownian path (synchronous
coupling) makes the inter-level difference a pure discretization error.

The public way to simulate is the two drivers, ``run_single`` and
``em_multilevel``; both draw the path the same way: in time blocks, each
taken one record interval at a time, the interval's increments reduced down
the ladder of simulated levels and stepped through at every level by
``em_run``, and the record row handed on.  That loop, ``_em_blocks``, is a
generator of record rows; it checks a simulation's inputs and memory once,
before anything is drawn, and ``em_run`` and ``paths`` run unchecked under it.
Both drivers return ``(times, rows)`` with their arguments checked at the
call: ``rows`` an iterator that steps each record row as it is asked for, so
a caller that reduces the rows as they come holds one block of increments
and the current states, never a trajectory.  ``run_single``'s rows are the
read-only (N, d) ensembles at ``times[0], times[1], ...``; ``em_multilevel``'s
are ``{level: (N, d) states}`` dicts, the reference level included, every
level recorded on the one ``times``.

The initial ensemble is a plain float64 (N, d) array.  Each initial law checks
its parameters when it is built, and their length, which needs d, when read.
"""

from __future__ import annotations

import numbers
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Union

import numpy as np

from .measure import EmpiricalMeasure
from .models import CoefficientModel
from .paths import AUX_STREAM_BASE, MAX_LATTICE_LEVEL, NoiseStreams, coarsen, sample_lattice, _particle_rng

__all__ = [
    "SolverError",
    "BlowUpError",
    "PointMass",
    "GaussianLaw",
    "UniformBox",
    "InitialLaw",
    "sample_initial",
    "em_multilevel",
    "run_single",
]

#: abort threshold for any state coordinate
BLOWUP_LIMIT = 1e8

#: bytes that each array ``_em_blocks`` bounds may take
DEFAULT_MEMORY_CAP = 2**31


class SolverError(ValueError):
    """An input the solver refuses (a law's parameters, a driver's argument or
    an initial particle drawn beyond the blow-up limit), raised before the
    first step; ``mvsde`` reports it as a config error (exit 2)."""


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
        scale = np.sqrt(_components(self, "cov", dim))
        mean = _components(self, "mean_vec", dim)
        # + 0.0 makes a zero-variance coordinate +0.0 for a -0.0 mean too: the
        # bits of the diagonal matmul that a test compares against
        return mean + (rng.standard_normal((n, dim)) * scale + 0.0)

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


def _integer(name: str, value) -> int:
    """``value`` as an int; as in ``fit_rate``, any integral value is accepted."""
    if not (isinstance(value, numbers.Integral) or (isinstance(value, numbers.Real) and float(value).is_integer())):
        raise SolverError(f"{name} must be an integer, got {value}")
    return int(value)


def sample_initial(law: InitialLaw, n: int, dim: int, seed: int) -> np.ndarray:
    """N i.i.d. draws from the initial law as a float64 (N, d) array,
    deterministic in the seed.

    Uses a counter-based stream in the auxiliary key range so it never
    collides with the per-particle noise streams of the same seed.  A seed
    that is not an integer in [0, 2^64) is refused, not folded onto one.  A
    draw with a coordinate beyond ``BLOWUP_LIMIT`` is refused: the law, not
    the scheme, put that particle out of range.
    """
    if n < 1 or dim < 1:
        raise SolverError("need at least one particle and one dimension")
    seed = _integer("seed", seed)
    if not 0 <= seed < 1 << 64:
        raise SolverError(f"seed must lie in [0, 2^64), got {seed}")
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
           horizon: float) -> np.ndarray:
    """Step the ensemble over the level-``level`` grid of [0, horizon] and
    return the final states.

    ``increments`` holds the Brownian increments of that grid's own cells,
    shape (N, 2^level, d): row p, cell i is particle p's W(t_{i+1}) - W(t_i).
    Per cell: freeze the empirical law and the left states, then
    ``X += b(X, mu) * h + sigma(X, mu) @ dW`` for every particle.  A
    ``BlowUpError`` names the cell from 0 on this grid.

    The block loop is the one caller, and it guarantees what is not checked
    here: ``increments`` matches the ensemble and the model; the horizon is
    positive and finite; and the states are finite and within
    ``BLOWUP_LIMIT``.  They are rebound each step, never written.
    """
    h = horizon / (1 << level)
    states = ensemble.states
    for i in range(1 << level):
        mu = EmpiricalMeasure(states)
        drift = np.asarray(model.drift(states, mu), dtype=np.float64)
        noise = np.asarray(model.diffusion_apply(states, mu, increments[:, i, :]), dtype=np.float64)
        states = states + h * drift + noise
        _guard(states, level=level, step=i, time=(i + 1) * h)
    return states


#: blocks hold 2^BLOCK_LEVEL finest steps where the record grid allows
BLOCK_LEVEL = 9


def _em_blocks(model: CoefficientModel, law: InitialLaw, seed: int, run_levels: list[int], finest: int,
               n_particles: int, horizon: float, record_level: int | None):
    """Step every level of ``run_levels`` (none above ``finest``) off one
    level-``finest`` Brownian path, drawn in time blocks: a generator that
    first yields the record times and then, per record point j, the dict
    ``{level: (N, d) states at times[j]}``, row 0 the initial ensemble.

    The one checked entry of a simulation.  It does its checks and draws the
    initial ensemble before the first yield, so a driver primes it with
    ``next`` to raise at the call.  Before anything is drawn or allocated it
    refuses a non-integer particle count or record level (default: the
    coarsest run level), levels outside [0, ``MAX_LATTICE_LEVEL``], a bad
    horizon, and, naming it, each of three arrays above
    ``DEFAULT_MEMORY_CAP`` bytes: the recorded trajectories (the record grid's
    states of every level, which ``mvsde run`` writes and keeps one mean per
    row of), one block of increments and the stream positions.  ``sample_initial`` then
    checks the particle count, the dimension and the seed; the machinery of
    ``paths`` checks nothing.  The streams are built after the first yield,
    so a primed generator holds only the initial ensemble.

    The blocks are the 2^c cells of level
    ``c = min(record_level, max(0, finest - BLOCK_LEVEL))``.  Each block's
    finest increments are drawn once (the last block marked ``last``, so the
    draw skips reading the stream positions back) and taken one record
    interval at a time: the interval's increments are reduced down the sorted
    level ladder, each level's summed from the next finer level's, every
    level is stepped over the interval by ``em_run`` from the state it
    reached, and the row is yielded.  An interval starts on a grid point of
    every level, so its increments hold whole subtrees of the one fixed tree
    of sums, and the states are the floats of reducing and stepping the whole
    path at once.  The loop holds one block, one interval's next level down
    and the current states; the block is freed before its last row is handed
    on.  Rows are read-only and never written again, so a consumer may hold
    them.  A ``BlowUpError`` names the first blow-up in interval order,
    finest level first, on the level's own grid from t = 0.
    """
    n_particles = _integer("n_particles", n_particles)
    coarsest = min(run_levels)
    record_level = coarsest if record_level is None else _integer("record_level", record_level)
    if not (0 <= coarsest and finest <= MAX_LATTICE_LEVEL):
        raise SolverError(f"levels {coarsest}..{finest} outside the level limit [0, {MAX_LATTICE_LEVEL}]")
    if not (0 <= record_level <= coarsest):
        raise SolverError(f"record level {record_level} outside [0, {coarsest}]")
    c = min(record_level, max(0, finest - BLOCK_LEVEL))
    block_horizon = horizon / (1 << c)
    if not (np.isfinite(block_horizon) and block_horizon > 0):
        raise SolverError(f"horizon must be positive and finite, got {horizon}")
    state_bytes = n_particles * model.dim * 8
    for name, nbytes in (
        ("recorded trajectories", len(run_levels) * ((1 << record_level) + 1) * state_bytes),
        ("one block of increments", (1 << (finest - c)) * state_bytes),
        ("stream positions", n_particles * NoiseStreams.POSITION_BYTES),
    ):
        if nbytes > DEFAULT_MEMORY_CAP:
            raise SolverError(f"{name} would need {nbytes} bytes, above the memory limit of {DEFAULT_MEMORY_CAP} bytes")

    ladder = sorted(run_levels, reverse=True)
    block_rows = 1 << (record_level - c)
    span = 1 << (finest - record_level)
    interval = horizon / (1 << record_level)
    initial = sample_initial(law, n_particles, model.dim, seed)
    # t_i = i * (T / 2^r): dividing by a power of two is exact
    times = np.arange((1 << record_level) + 1, dtype=np.float64) * interval
    times.flags.writeable = False
    yield times

    streams = NoiseStreams(seed, n_particles)
    initial.flags.writeable = False
    current = {lvl: initial for lvl in run_levels}
    yield dict(current)
    for b in range(1 << c):
        # each level's state at the block's end outlives the block, so it goes
        # into a fresh array made before the block is drawn: one made while the
        # block is alive may sit above it on the heap, where the freed block
        # cannot merge back (a rate study's peak resident memory rose by a block)
        ends = np.empty((len(ladder), n_particles, model.dim))
        block = sample_lattice(streams, model.dim, finest - c, block_horizon,
                               last=b == (1 << c) - 1).increments
        for k in range(block_rows):
            increments = block[:, k * span:(k + 1) * span]
            end = k == block_rows - 1
            if end:
                del block  # the last interval's slice holds it until reduced
            for i, lvl in enumerate(ladder):
                # rebinding releases the finer level's array
                increments = coarsen(increments, lvl - record_level)
                try:
                    states = em_run(model, ParticleEnsemble(current[lvl]), lvl - record_level, increments, interval)
                except BlowUpError as err:
                    step = ((b * block_rows + k) << (lvl - record_level)) + err.step
                    raise BlowUpError(
                        level=lvl, step=step, time=(step + 1) * (horizon / (1 << lvl)),
                        particle=err.particle, state=err.state,
                    ) from None
                if end:
                    ends[i] = states
                    states = ends[i]
                states.flags.writeable = False
                current[lvl] = states
            del increments  # released before the row is handed on
            yield dict(current)


def _stream(model, law, seed, run_levels, finest, n_particles, horizon, record_level):
    """``(times, rows)`` of the block loop, primed, so its checks have run."""
    rows = _em_blocks(model, law, seed, run_levels, finest, n_particles, horizon, record_level)
    return next(rows), rows


def em_multilevel(
    model: CoefficientModel,
    law: InitialLaw,
    seed: int,
    levels: list[int],
    finest: int,
    n_particles: int,
    horizon: float,
    record_level: int | None = None,
) -> tuple[np.ndarray, Iterator[dict[int, np.ndarray]]]:
    """Run every requested level plus the finest reference off one Brownian path.

    All levels share the initial ensemble and the Brownian path, and are
    recorded on a common grid (default: the coarsest requested level), so the
    rows are synchronously coupled: ``(times, rows)``, each row the dict
    ``{level: (N, d) states}`` at its record time, the reference level
    ``finest`` included, stepped as it is asked for.  The path is streamed in
    time blocks, each reduced once down the levels, by the loop that also
    serves ``run_single`` and checks the arguments.
    """
    levels = sorted({_integer("levels", v) for v in levels})
    finest = _integer("finest", finest)
    if not levels:
        raise SolverError("need at least one level")
    if levels[-1] >= finest:
        raise SolverError(f"max level {levels[-1]} must be below the reference level {finest}")
    return _stream(model, law, seed, [*levels, finest], finest, n_particles, horizon, record_level)


def run_single(
    model: CoefficientModel,
    law: InitialLaw,
    seed: int,
    level: int,
    finest: int | None = None,
    n_particles: int = 1000,
    horizon: float = 1.0,
    record_level: int | None = None,
) -> tuple[np.ndarray, Iterator[np.ndarray]]:
    """One level, driven by a level-``finest`` Brownian path (finest defaults
    to the run level), recorded at ``record_level`` (default: every step).

    Returns ``(times, rows)``: ``rows`` is an iterator of the read-only
    (N, d) states at ``times[0], times[1], ...``, each stepped as it is
    asked for.  The arguments are checked at the call.
    """
    level = _integer("level", level)
    finest = level if finest is None else _integer("finest", finest)
    if finest < level:
        raise SolverError(f"finest level {finest} below run level {level}")
    times, rows = _stream(model, law, seed, [level], finest, n_particles, horizon, record_level)
    return times, (row[level] for row in rows)
