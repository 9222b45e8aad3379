"""Package-level checks: public names and import cost."""
from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import stepdirect

MODULES = sorted(m.name for m in pkgutil.iter_modules(stepdirect.__path__, "stepdirect."))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # A name deleted from a module but left in its __all__ breaks
    # `from module import *` and misleads readers of the public API.
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_cli_import_leaves_out_scipy_interpolate():
    # Only CubicBasis.design needs scipy.interpolate, which also loads
    # scipy.optimize; importing the package's entry point must not pay
    # for it. A fresh interpreter, since this one may have loaded it.
    src = str(Path(stepdirect.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = "import sys, stepdirect.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.interpolate')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
