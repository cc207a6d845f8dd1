"""The package runs on the standard library alone: numpy is a test
dependency only (pyproject.toml's `test` extra).  A copy of the package
imported afresh, as a harness that re-imports it does, is freed once it is
dropped from sys.modules."""

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


REIMPORT = """
import gc, importlib, pkgutil, sys, weakref

def fresh():
    for name in [n for n in sys.modules if n.split(".")[0] == "localduality"]:
        del sys.modules[name]
    pkg = importlib.import_module("localduality")
    for info in pkgutil.walk_packages(pkg.__path__, "localduality."):
        importlib.import_module(info.name)
    return pkg

fresh()
ref = weakref.ref(fresh().graded.GradedModule)
for name in [n for n in sys.modules if n.split(".")[0] == "localduality"]:
    del sys.modules[name]
gc.collect()
assert ref() is None, "a re-imported copy of the package stays alive"
"""


def test_a_dropped_copy_of_the_package_is_freed():
    # a module-level typing subscript over a package class, such as
    # Union[GradedModule, ...], is cached by typing and keeps every copy alive
    out = subprocess.run([sys.executable, "-c", REIMPORT], cwd=SRC,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
