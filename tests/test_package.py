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


def fresh_output(code: str) -> str:
    """What code prints in a fresh interpreter, which has imported nothing yet."""
    src = str(Path(stepdirect.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_cli_import_leaves_out_scipy_interpolate():
    # Only CubicBasis.design needs scipy.interpolate, which also loads
    # scipy.optimize; importing the package's entry point must not pay
    # for it. A fresh interpreter, since this one may have loaded it.
    code = "import sys, stepdirect.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.interpolate')))"
    assert fresh_output(code) == "[]"


def test_cli_import_builds_no_table():
    # The nu and rho tables are built on first use, so importing the
    # package's entry point builds neither: the nu family's cache is empty,
    # and no TiltedGrid is made.
    code = (
        "import stepdirect.target as target\n"
        "made, init = [], target.TiltedGrid.__post_init__\n"
        "target.TiltedGrid.__post_init__ = lambda grid: made.append(grid) or init(grid)\n"
        "import stepdirect.cli, stepdirect.treg\n"
        "print(stepdirect.treg.nu_family.cache_info().currsize, len(made))"
    )
    assert fresh_output(code) == "0 0"
