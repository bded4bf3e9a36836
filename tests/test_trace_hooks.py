"""The benchmark's trace wraps names of ``mvsde`` modules from outside the
package (``mvbench/spans.py``).  A rename or a call that bypasses one of them
leaves a traced layer reading zero, so a tiny ``rate`` run checks that every
hook still fires and that the exact counts still add up."""

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


@pytest.fixture()
def bench(monkeypatch, request):
    # imported as they stand: the benchmark's files are read, never changed
    monkeypatch.syspath_prepend(str(request.config.rootpath / "mvbench"))
    return importlib.import_module("spans"), importlib.import_module("run")


def test_traced_rate_run_fires_every_hook(bench, tmp_path):
    spans, run = bench
    path = tmp_path / "rate.cfg"
    path.write_text(RATE_CFG)
    tracer = spans.Tracer()
    tracer.experiment = 0
    with spans.installed(tracer, cli, solver, analysis):
        code = cli.main(["rate", "--config", str(path), "--out", str(tmp_path / "out"), "--threads", "1"])
    assert code == cli.EXIT_OK

    calls = tracer.calls_by_name()
    assert [name for name in run.MOST_WORK["rate-osgood"] if calls[name] == 0] == []
    metrics = tracer.layer_metrics(0)
    assert metrics["solver.steps"] == sum(2**lvl for lvl in (*LEVELS, FINEST))
    assert metrics["paths.lattice_bytes"] == N * 2**FINEST * DIM * 8
    # blocks of level min(record level 2, finest - 9) = 2: four blocks, each
    # coarsened once per simulated level
    assert metrics["paths.coarsen_calls"] == 4 * (len(LEVELS) + 1)
