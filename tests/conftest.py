import numpy as np
import pytest

from mvsde import solver
from mvsde.measure import EmpiricalMeasure
from mvsde.paths import NoiseStreams
from mvsde.solver import ParticleEnsemble


def random_coupled_pair(rng: np.random.Generator, n: int, dim: int, scale: float = 5.0):
    """Two measures on n atoms each (index coupling valid)."""
    a = EmpiricalMeasure(rng.uniform(-scale, scale, size=(n, dim)))
    b = EmpiricalMeasure(rng.uniform(-scale, scale, size=(n, dim)))
    return a, b


def em_path(model, states, level, increments, horizon, record_level=None):
    """``states`` stepped by ``solver.em_run`` over the level-``level`` grid
    of [0, horizon], one record interval (default: every step) at a time off
    the whole-path ``increments``, not in blocks.  Returns ``(times, states)``
    as the drivers do; a ``BlowUpError`` names the step within its record
    interval, so record level 0 names it on the whole grid."""
    record_level = level if record_level is None else record_level
    cells = 1 << (level - record_level)
    interval = horizon / (1 << record_level)
    rows = [np.asarray(states)]
    for j in range(1 << record_level):
        rows.append(solver.em_run(model, ParticleEnsemble(rows[-1]), level - record_level,
                                  increments[:, j * cells:(j + 1) * cells], interval))
    return np.arange(len(rows)) * interval, np.stack(rows)


def stacked(run):
    """A driver's ``(times, rows)`` with every row stepped and stacked, for
    tests that need a whole trajectory: one (points, N, d) array from
    ``run_single``, ``{level: (points, N, d) array}`` from ``em_multilevel``."""
    times, rows = run
    rows = list(rows)
    if isinstance(rows[0], dict):
        return times, {lvl: np.stack([row[lvl] for row in rows]) for lvl in rows[0]}
    return times, np.stack(rows)


def refuse_any_draw(monkeypatch):
    """Fail the test if the block loop builds noise streams or draws a lattice."""
    def drawn(*args, **kwargs):
        raise AssertionError("the lattice machinery was reached")

    monkeypatch.setattr(NoiseStreams, "__init__", drawn)
    monkeypatch.setattr(solver, "sample_lattice", drawn)


def halving_loop(increments, level):
    """``increments`` coarsened to ``level`` by halving the whole array at
    once, adjacent pairs left child first: a reference for ``coarsen`` that
    shares none of its code."""
    while increments.shape[1] > 1 << level:
        increments = increments[:, 0::2] + increments[:, 1::2]
    return increments


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)
