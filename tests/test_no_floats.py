"""No floats anywhere: the package source holds no float or complex
literal and calls neither ``float`` nor ``complex``.

A scan of the syntax tree, so text in strings and comments does not
count, and every module under ``src/bottcheck`` is covered, new ones too.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bottcheck"
MODULES = sorted(PACKAGE.glob("*.py"))


def inexact_nodes(source: str) -> list:
    """(line, text) of each float or complex literal and each call of
    ``float`` or ``complex`` in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append((node.lineno, repr(node.value)))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("float", "complex")):
            found.append((node.lineno, f"{node.func.id}(...)"))
    return found


def test_the_scan_sees_the_package():
    assert {"exact.py", "chow.py", "chern.py", "cli.py"} <= {m.name for m in MODULES}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.name)
def test_module_has_no_float_or_complex(module):
    assert inexact_nodes(module.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source", ["x = 0.5", "x = 1e3", "x = 2j", "y = float(x)",
                                    "y = complex(1, 2)", "f(1, g(float('inf')))"])
def test_scan_flags_inexact_code(source):
    assert inexact_nodes(source)


@pytest.mark.parametrize("source", ["x = 1", "x = '0.5'", "# 0.5\nx = 2",
                                    "x = Fraction(1, 2)", "x = obj.float(3)"])
def test_scan_passes_exact_code(source):
    assert inexact_nodes(source) == []
