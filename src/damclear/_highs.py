"""scipy's HiGHS bindings, loaded without scipy.optimize.

damclear drives HiGHS through one compiled module of scipy,
scipy.optimize._highspy._core. Importing it by name runs scipy.optimize's
package initialiser, which also loads scipy.linalg, scipy.sparse and the
rest of the optimizer stack: most of damclear's start-up time and memory.
This module loads the extension from its file inside the installed scipy
and registers it in sys.modules under its own name, so a later
``import scipy.optimize`` reuses the same module object, and a module
already imported that way is reused here.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import scipy

_NAME = "scipy.optimize._highspy._core"


def _load():
    if _NAME in sys.modules:
        return sys.modules[_NAME]
    folder = os.path.join(os.path.dirname(scipy.__file__), "optimize", "_highspy")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_core" + suffix)
        if os.path.isfile(path):
            break
    else:
        raise ImportError(f"no HiGHS extension _core in {folder}", name=_NAME)
    spec = importlib.util.spec_from_file_location(_NAME, path)
    try:
        # a single-phase extension initialises in module_from_spec
        module = importlib.util.module_from_spec(spec)
        sys.modules[_NAME] = module
        spec.loader.exec_module(module)
    except Exception as exc:
        sys.modules.pop(_NAME, None)
        raise ImportError(f"cannot load the HiGHS extension in {folder}: {exc}", name=_NAME) from exc
    return module


core = _load()
