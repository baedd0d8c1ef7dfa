"""The package's own namespace: no re-exports, and one import that loads
every module.

``bottcheck/__init__.py`` holds a docstring and ``__version__``; a name
is imported from the module that defines it.  ``bottcheck.cli`` imports
every other module, so ``import bottcheck.cli`` loads the whole package.
"""

import os
import subprocess
import sys
from pathlib import Path

import bottcheck
from bottcheck import exact

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(p.stem for p in (SRC / "bottcheck").glob("*.py") if p.stem != "__init__")


def test_the_package_exports_only_its_version():
    public = {name for name in vars(bottcheck) if not name.startswith("_")}
    assert public <= set(MODULES)  # submodules bound by their own import
    assert bottcheck.__version__ == "0.1.0"


def test_importing_the_cli_loads_every_module():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, bottcheck.cli; "
         "print(' '.join(sorted(m for m in sys.modules if m.startswith('bottcheck.'))))"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [f"bottcheck.{m}" for m in MODULES]
    assert len(MODULES) == 7


def test_no_affine_type_and_no_rational_alias_are_left():
    for name in ("Affine", "Rational"):
        assert not hasattr(exact, name), name
