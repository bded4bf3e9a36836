import numpy as np
import pytest

from mvsde import solver
from mvsde.measure import EmpiricalMeasure
from mvsde.solver import ParticleEnsemble, TrajectorySet


def random_measure(rng: np.random.Generator, n: int, dim: int, scale: float = 5.0) -> EmpiricalMeasure:
    return EmpiricalMeasure(rng.uniform(-scale, scale, size=(n, dim)))


def random_coupled_pair(rng: np.random.Generator, n: int, dim: int, scale: float = 5.0):
    """Two measures on n atoms each (index coupling valid)."""
    a = EmpiricalMeasure(rng.uniform(-scale, scale, size=(n, dim)))
    b = EmpiricalMeasure(rng.uniform(-scale, scale, size=(n, dim)))
    return a, b


def em_path(model, states, level, increments, horizon, record_level=None) -> TrajectorySet:
    """``states`` stepped by ``solver.em_run`` over the level-``level`` grid
    of [0, horizon] as the block loop steps a block: into a trajectory
    allocated for the record grid (default: every step), its row 0 the start."""
    record_level = level if record_level is None else record_level
    out = np.empty(((1 << record_level) + 1, *np.shape(states)))
    out[0] = states
    solver.em_run(model, ParticleEnsemble(out[0]), level, increments, horizon, out)
    return TrajectorySet(np.arange(len(out)) * (horizon / (1 << record_level)), out)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)
