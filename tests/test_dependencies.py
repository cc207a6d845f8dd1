"""The package runs on the standard library alone: numpy is a test
dependency only (pyproject.toml's `test` extra)."""

import pkgutil
import subprocess
import sys
from pathlib import Path

import localduality

SRC = Path(localduality.__file__).resolve().parent.parent

PROBE = """
import importlib, pkgutil, sys
import localduality
for info in pkgutil.walk_packages(localduality.__path__, "localduality."):
    importlib.import_module(info.name)
print(sorted(name for name in sys.modules if name.startswith("localduality")))
assert "numpy" not in sys.modules, "a localduality module imports numpy"
"""


def test_no_submodule_imports_numpy():
    out = subprocess.run([sys.executable, "-c", PROBE], cwd=SRC,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    # the probe imported every submodule, not just the package
    names = {info.name for info in pkgutil.walk_packages(
        localduality.__path__, "localduality.")}
    assert names and all(repr(n) in out.stdout for n in names)
