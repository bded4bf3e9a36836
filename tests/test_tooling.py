import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mvsde.analysis import increment_scaling, law_gap_curve, moment_curve, strong_error
from mvsde.models import mf_ou, osgood
from mvsde.solver import GaussianLaw, em_multilevel, run_single

from conftest import stacked

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"

# a failing property test, then a plain test that fails only because the
# project's warning filters make a DeprecationWarning an error
TWO_FAILURES = """\
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 0


def test_deprecation_is_an_error():
    warnings.warn("deprecated", DeprecationWarning)
"""


def test_failing_property_test_does_not_end_the_session(tmp_path):
    (tmp_path / "test_two.py").write_text(TWO_FAILURES)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "2 failed" in proc.stdout, proc.stdout


def test_cli_catches_only_typed_errors():
    # exit codes follow the error's type: a broad except in cli would turn
    # a bug's exception into a config error (or hide it)
    tree = ast.parse((ROOT / "src" / "mvsde" / "cli.py").read_text())
    broad = {"ValueError", "Exception", "BaseException"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler):
            assert node.type is not None, f"bare except at line {node.lineno}"
            names = {n.id if isinstance(n, ast.Name) else n.attr
                     for n in ast.walk(node.type) if isinstance(n, (ast.Name, ast.Attribute))}
            assert not names & broad, f"except {sorted(names & broad)} at line {node.lineno}"


# the benchmark's setup probe (import the CLI, load a config, build its model),
# run over every canonical config; the config's kind is its name's first word
SETUP_IMPORTS = """\
import sys
from pathlib import Path

import mvsde.cli
from mvsde.config import load_config
from mvsde.models import make_model

for path in sorted(Path(sys.argv[1]).glob("*.cfg")):
    cfg = load_config(path, path.name.split("_")[0])
    make_model(cfg.model_id, dim=cfg.dim, params=cfg.model_params)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_setup_imports_no_scipy():
    # importing scipy.integrate costs about 0.6 s and 52 MB; only the two
    # analysis oracles use it, on first use
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_IMPORTS, str(ROOT / "configs")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _bits(report):
    """Each number of a report as bytes, so equal means bit for bit."""
    if isinstance(report, dict):
        return {key: np.array(value).tobytes() for key, value in report.items()}
    return {f.name: np.array(getattr(report, f.name)).tobytes() for f in dataclasses.fields(report)}


def _whole(run):
    """A driver's run stepped and stacked: a (points, N, d) array, or for a
    coupled run its rows read back out of the stacked per-level arrays."""
    _, whole = stacked(run)
    if isinstance(whole, dict):
        whole = [dict(zip(whole, states)) for states in zip(*whole.values())]
    return whole


def _single(seed):
    return run_single(mf_ou(dim=2), GaussianLaw(0.0, 1.0), seed, level=8, n_particles=64)


# every reduction of driver rows: (the driver runs it reads, the reduction of
# their times and rows)
ROW_REDUCTIONS = [
    pytest.param(lambda: [em_multilevel(osgood(), GaussianLaw(0.0, 1.0), 7, [3, 4], 8, 64, 1.0)],
                 lambda times, rows: strong_error(rows, 8), id="strong_error"),
    pytest.param(lambda: [_single(1)], lambda times, rows: moment_curve(times, rows, order=2), id="moment_curve"),
    pytest.param(lambda: [_single(1), _single(2)], law_gap_curve, id="law_gap_curve"),
    pytest.param(lambda: [_single(1)], lambda times, rows: increment_scaling(rows, 1, [1, 2, 16, 128]),
                 id="increment_scaling"),
]


@pytest.mark.parametrize("runs, reduce", ROW_REDUCTIONS)
def test_reduction_of_rows_equals_the_stacked_run(runs, reduce):
    # a reduction handed a driver's one-shot rows must give the bytes of the
    # whole (points, N, d) trajectory: one that indexes or slices its input
    # as an array fails here
    driven = runs()
    times = driven[0][0]
    streamed = reduce(times, *(rows for _, rows in driven))
    assert _bits(streamed) == _bits(reduce(times, *map(_whole, runs())))
