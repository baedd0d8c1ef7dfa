"""The package's own namespace: no re-exports, and what a fresh process
loads.

``bottcheck/__init__.py`` holds a docstring and ``__version__``; a name
is imported from the module that defines it.  ``import bottcheck.cli``
loads every other module but the case-file reader ``bottcases``, which
``bott-report`` loads when it runs, and none of ``dataclasses``,
``inspect`` or ``argparse``: a command's run is mostly its start-up.
``build_parser`` loads ``argparse``.  A case file's errors, which
``bott-report`` raises only once ``bottcases`` is loaded, still end a
fresh process with exit code 2 and one ``error:`` line.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bottcheck
from bottcheck import exact

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(p.stem for p in (SRC / "bottcheck").glob("*.py") if p.stem != "__init__")


def test_the_package_exports_only_its_version():
    public = {name for name in vars(bottcheck) if not name.startswith("_")}
    assert public <= set(MODULES)  # submodules bound by their own import
    assert bottcheck.__version__ == "0.1.0"


ENV = dict(os.environ, PYTHONPATH=str(SRC))

# Prints, after each step, the modules it loaded that the interpreter had
# not loaded before it, one line per step.
LOADED = """
import io, sys
before = set(sys.modules)
def loaded():
    print(' '.join(sorted(set(sys.modules) - before)))
import bottcheck.cli
loaded()
out = io.StringIO()
assert bottcheck.cli.run(["thm2", "--bundle", "P1: O(0)^4", "--k", "1"], out=out) == 0
loaded()
assert bottcheck.cli.run(["bott-report", "--json"], out=out) == 0
loaded()
"""


def test_importing_the_cli_loads_every_module_but_the_case_reader():
    proc = subprocess.run([sys.executable, "-c", LOADED], capture_output=True,
                          text=True, env=ENV, timeout=60)
    assert proc.returncode == 0, proc.stderr
    imported, after_thm2, after_report = (set(line.split())
                                          for line in proc.stdout.splitlines())
    package = sorted(m for m in imported if m.startswith("bottcheck."))
    assert package == [f"bottcheck.{m}" for m in MODULES if m != "bottcases"]
    assert len(MODULES) == 7
    assert not imported & {"dataclasses", "inspect", "argparse"}
    assert "argparse" in after_thm2 and "bottcheck.bottcases" not in after_thm2
    assert "bottcheck.bottcases" in after_report


@pytest.mark.parametrize("cases, message", [
    ("missing.ini", "error: [Errno 2] No such file or directory: 'missing.ini'"),
    (str(Path(__file__).parent / "golden" / "cases_bad_h.ini"),
     "error: record 'r', field 'h': the Hodge number h must be an integer"),
])
def test_a_case_file_error_ends_a_fresh_process_with_exit_code_2(tmp_path, cases, message):
    proc = subprocess.run(
        [sys.executable, "-m", "bottcheck.cli", "bott-report", "--cases", cases],
        capture_output=True, text=True, env=ENV, timeout=60, cwd=tmp_path,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message + "\n")


def test_no_affine_type_and_no_rational_alias_are_left():
    for name in ("Affine", "Rational"):
        assert not hasattr(exact, name), name
