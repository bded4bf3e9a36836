import ast
import os
import subprocess
import sys
from pathlib import Path

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
