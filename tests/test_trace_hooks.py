"""The benchmark's trace wraps names of ``mvsde`` modules from outside the
package (``mvbench/spans.py``).  A rename or a call that bypasses one of them
leaves a traced layer reading zero, so tiny ``rate``, ``run`` and ``metric``
runs (one per benchmark workload, through both drivers, ``em_multilevel`` and
``run_single``) check that every hook still fires and that the exact counts
still add up."""

import importlib

import pytest

from mvsde import analysis, cli, solver

N, DIM, LEVELS, FINEST = 16, 1, (2, 3, 4), 11

RATE_CFG = f"""
model.id = osgood
sim.d = {DIM}
sim.N = {N}
sim.levels = {" ".join(map(str, LEVELS))}
sim.finest = {FINEST}
sim.seed = 5
init.law = gaussian
"""

RUN_LEVEL, RUN_FINEST = 10, 11

RUN_CFG = f"""
model.id = mf-ou
sim.d = {DIM}
sim.N = {N}
sim.level = {RUN_LEVEL}
sim.finest = {RUN_FINEST}
sim.record_level = 4
sim.seed = 5
init.law = gaussian
"""

METRIC_CFG = f"""
model.id = mf-ou
sim.d = {DIM}
sim.N = {N}
sim.level = 3
sim.seed = 5
init.law = gaussian
"""


@pytest.fixture()
def bench(monkeypatch, request):
    # imported as they stand: the benchmark's files are read, never changed
    monkeypatch.syspath_prepend(str(request.config.rootpath / "mvbench"))
    return importlib.import_module("spans"), importlib.import_module("run")


def _traced(spans, tmp_path, kind, text):
    path = tmp_path / f"{kind}.cfg"
    path.write_text(text)
    tracer = spans.Tracer()
    tracer.experiment = 0
    with spans.installed(tracer, cli, solver, analysis):
        code = cli.main([kind, "--config", str(path), "--out", str(tmp_path / "out"), "--threads", "1"])
    assert code == cli.EXIT_OK
    return tracer


def test_traced_rate_run_fires_every_hook(bench, tmp_path):
    spans, run = bench
    tracer = _traced(spans, tmp_path, "rate", RATE_CFG)

    calls = tracer.calls_by_name()
    assert [name for name in run.MOST_WORK["rate-osgood"] if calls[name] == 0] == []
    metrics = tracer.layer_metrics(0)
    assert metrics["solver.steps"] == sum(2**lvl for lvl in (*LEVELS, FINEST))
    # read from the carrier em_run is handed: every step moves all N particles
    assert tracer.counts[0]["solver.particle_steps"] == N * metrics["solver.steps"]
    # one drift, one diffusion and one law per step: a kernel that adds or
    # drops a counted call shows here
    assert metrics["models.calls"] == 2 * metrics["solver.steps"]
    assert metrics["measure.law_builds"] == metrics["solver.steps"]
    assert metrics["paths.lattice_bytes"] == N * 2**FINEST * DIM * 8
    # blocks of level min(record level 2, finest - 9) = 2: four blocks, each
    # coarsened once per simulated level
    assert metrics["paths.coarsen_calls"] == 4 * (len(LEVELS) + 1)


def test_traced_run_fires_the_simulation_hooks(bench, tmp_path):
    # the dump-csv and lawgap-wide workloads simulate through run_single
    spans, run = bench
    tracer = _traced(spans, tmp_path, "run", RUN_CFG)

    calls = tracer.calls_by_name()
    assert [name for name in ("paths.lattice", "paths.coarsen", "solver.step") if calls[name] == 0] == []
    assert [name for name in run.MOST_WORK["dump-csv"] if calls[name] == 0] == []
    metrics = tracer.layer_metrics(0)
    assert metrics["solver.steps"] == 2**RUN_LEVEL
    assert metrics["paths.lattice_bytes"] == N * 2**RUN_FINEST * DIM * 8
    # blocks of level min(record level 4, finest - 9) = 2: four blocks of
    # four record intervals, each interval coarsened once, straight to the
    # run level
    assert metrics["paths.coarsen_calls"] == 4 * 4


def test_traced_metric_run_fires_the_law_gap_hooks(bench, tmp_path):
    # the lawgap-wide workload's layers: the law-gap curve and its integrals
    spans, run = bench
    tracer = _traced(spans, tmp_path, "metric", METRIC_CFG)

    calls = tracer.calls_by_name()
    assert [name for name in run.MOST_WORK["lawgap-wide"] if calls[name] == 0] == []
    # two runs (seed and seed_b) through run_single, one level-3 block each
    assert tracer.layer_metrics(0)["solver.steps"] == 2 * 2**3
