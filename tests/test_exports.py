import importlib
import pkgutil

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
