"""Each public name has one import path, its submodule, and one declaration, that module's ``__all__``."""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

import pytest

import sparsetn

# the command line driver is an entry point, not an API, and declares no __all__
MODULES = sorted(m.name for m in pkgutil.iter_modules(sparsetn.__path__) if m.name != "cli")


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_every_public_function_and_class(name):
    mod = importlib.import_module(f"sparsetn.{name}")
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
    defined = {n for n, obj in vars(mod).items()
               if not n.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == mod.__name__}
    assert sorted(defined - set(mod.__all__)) == []


def test_graph_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(sparsetn.__file__))
    code = "import sys, sparsetn.graph; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("name", ["tensor", "states", "env", "bp", "hamiltonian", "variational"])
def test_bp_path_import_loads_no_scipy(name):
    src = os.path.dirname(os.path.dirname(sparsetn.__file__))
    code = f"import sys, sparsetn.{name}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
