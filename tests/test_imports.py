"""Import graph: damclear loads scipy's HiGHS extension without scipy.optimize.

Each check runs in a fresh interpreter, since this test session has long
imported scipy.optimize itself.
"""

import importlib.machinery
import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from damclear import _highs

SRC = Path(__file__).resolve().parents[1] / "src"
CORE = "scipy.optimize._highspy._core"

# a small LP that linprog must still solve after damclear loaded the extension
LINPROG_CHECK = """
from scipy.optimize import linprog
res = linprog([-1.0, -2.0], A_ub=[[1.0, 1.0]], b_ub=[4.0], bounds=[(0, 3), (0, 3)], method="highs")
assert res.status == 0 and abs(res.fun + 7.0) < 1e-9, res
"""


def _python(code: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                         env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_clear_loads_neither_scipy_optimize_nor_sparse(toy_path, tmp_path):
    toy = tmp_path / "toy.json"
    shutil.copy(toy_path, toy)
    out = _python(f"""
import sys
import damclear, damclear.cli
assert damclear.cli.main(["clear", sys.argv[1]]) == 0
loaded = [name for name in ("scipy.optimize", "scipy.sparse", "scipy.linalg") if name in sys.modules]
assert not loaded, loaded
{LINPROG_CHECK}
assert sys.modules["{CORE}"] is damclear.backend._highspy is damclear.oracle._highspy
""", str(toy))
    assert out.startswith("welfare=450 ")


def test_damclear_reuses_the_extension_scipy_optimize_loaded(toy_path, tmp_path):
    toy = tmp_path / "toy.json"
    shutil.copy(toy_path, toy)
    out = _python(f"""
import sys
{LINPROG_CHECK}
core = sys.modules["{CORE}"]
import damclear.cli
assert damclear.backend._highspy is core and damclear.oracle._highspy is core
assert damclear.cli.main(["clear", sys.argv[1]]) == 0
""", str(toy))
    assert out.startswith("welfare=450 ")


def test_a_failed_load_raises_and_leaves_no_module_behind(monkeypatch):
    folder = os.path.join("optimize", "_highspy")
    monkeypatch.delitem(sys.modules, CORE)
    with monkeypatch.context() as patch:
        patch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
        with pytest.raises(ImportError, match=folder):
            _highs._load()

    def broken(spec):
        sys.modules[CORE] = object()  # a single-phase extension registers itself first
        raise RuntimeError("broken extension")

    monkeypatch.setattr(importlib.util, "module_from_spec", broken)
    with pytest.raises(ImportError, match=folder):
        _highs._load()
    assert CORE not in sys.modules
