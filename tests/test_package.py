"""Each public name has one import path, its submodule, and one declaration, that module's ``__all__``."""

import ast
import importlib
import inspect
import os
import pkgutil
import re
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


def test_package_imports_only_numpy_and_the_standard_library():
    """Every module of ``src/sparsetn`` imports the standard library, numpy or its own package, and numpy is the
    only declared dependency."""
    tomllib = pytest.importorskip("tomllib")
    pkg = os.path.dirname(sparsetn.__file__)
    imported = set()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                tree = ast.parse(fh.read(), name)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    imported.update((name, a.name.split(".")[0]) for a in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    imported.add((name, node.module.split(".")[0]))
    assert sorted((f, m) for f, m in imported if m not in sys.stdlib_module_names and m != "numpy") == []
    with open(os.path.join(os.path.dirname(os.path.dirname(pkg)), "pyproject.toml"), "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    assert [re.match(r"[\w.-]+", d).group() for d in deps] == ["numpy"]


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


@pytest.mark.parametrize("name", ["oracles", "cli"])
def test_cli_import_loads_no_scipy(name):
    src = os.path.dirname(os.path.dirname(sparsetn.__file__))
    code = f"import sys, sparsetn.{name}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_complex_generalized_graph_state_loads_no_scipy():
    """A complex edge matrix builds its state with numpy alone."""
    src = os.path.dirname(os.path.dirname(sparsetn.__file__))
    code = ("import sys; from sparsetn.graph import cycle_graph; from sparsetn.states import generalized_graph_state; "
            "generalized_graph_state(cycle_graph(5), [[1 + 0.3j, 0.5], [0.5, 1 - 0.2j]]); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_no_process_pool():
    """Only a sweep that starts worker processes loads ``multiprocessing`` and ``concurrent.futures``."""
    src = os.path.dirname(os.path.dirname(sparsetn.__file__))
    code = ("import sys, sparsetn.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_oracle_runs_load_no_scipy(tmp_path):
    """Exact diagonalization on both CLI paths that run it, at Lanczos sizes, in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(sparsetn.__file__))
    code = f"""
import sys
from sparsetn import cli
out = {str(tmp_path)!r}
runs = [
    ["graph-gen", "--n", "10", "--r", "3", "--seed", "1", "--out", out + "/g10.json", "--out-dir", out],
    ["var-prep", "--graph", out + "/g10.json", "--oracle", "--t-var", "2", "--out-dir", out + "/vp"],
    ["graph-gen", "--n", "9", "--tree", "--out", out + "/g9.json", "--out-dir", out],
    ["tfim-sweep", "--graph", out + "/g9.json", "--oracle", "--hx-grid", "1", "--t-var", "2", "--out-dir", out + "/ts"],
]
for argv in runs:
    print(cli.main(argv), sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split("\n")[:4] == ["0 []"] * 4
    assert (tmp_path / "vp" / "var_prep_summary.json").exists()
    assert (tmp_path / "ts" / "tfim_sweep_ed.csv").exists()


@pytest.mark.parametrize("preset", [None, "3"])
def test_cli_import_caps_blas_threads_unless_set(preset):
    src = os.path.dirname(os.path.dirname(sparsetn.__file__))
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = src
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = preset
    code = "import os, sparsetn.cli; print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == [preset or "1"] * 2
