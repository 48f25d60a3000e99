"""Each module imports cleanly on its own.

The package's __init__ imports the modules in one fixed order, which can
hide an import cycle that only bites when another module is the first
one loaded.  Every module is therefore imported first, in a fresh
interpreter, with the package registered but its __init__ not run.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import macroforge

PACKAGE_DIR = Path(macroforge.__file__).resolve().parent
MODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py")
                 if p.stem not in ("__init__", "__main__"))


def test_every_module_is_covered():
    assert {"asm", "greedy", "macros", "optimal"} <= set(MODULES)


IMPORT_ALONE = """
import importlib, sys, types
package = types.ModuleType("macroforge")
package.__path__ = [sys.argv[1]]
sys.modules["macroforge"] = package
importlib.import_module("macroforge." + sys.argv[2])
"""


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_ALONE, str(PACKAGE_DIR), module],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
