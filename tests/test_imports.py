"""What importing the package costs and exposes."""

import pkgutil
import subprocess
import sys

import pytest

import pssurf

MODULES = sorted(m.name for m in pkgutil.walk_packages(pssurf.__path__,
                                                       "pssurf."))


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency; no command may need it at start-up
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, pssurf.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("module", ["pssurf"] + MODULES)
def test_star_import(module):
    # fails when __all__ names something the module no longer defines
    exec(f"from {module} import *", {})
