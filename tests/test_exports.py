import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import mvsde

MODULES = sorted(info.name for info in pkgutil.iter_modules(mvsde.__path__))


def test_modules_found():
    assert {"analysis", "cli", "measure", "paths", "solver"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # an __all__ entry whose definition was deleted breaks `import *` only
    module = importlib.import_module(f"mvsde.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


# "module.name" for every name mvsde/__init__.py imports from a submodule
REEXPORTS = [
    f"{node.module}.{alias.name}"
    for node in ast.parse(Path(mvsde.__file__).read_text()).body
    if isinstance(node, ast.ImportFrom) and node.level == 1
    for alias in node.names
]


def test_reexports_found():
    assert "solver.run_single" in REEXPORTS


@pytest.mark.parametrize("qualname", REEXPORTS)
def test_reexports_are_public(qualname):
    # a name taken out of a submodule's __all__ must leave the package too
    module, name = qualname.split(".")
    assert name in importlib.import_module(f"mvsde.{module}").__all__
