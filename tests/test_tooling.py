import ast
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
