"""No floats anywhere: the package source holds no float or complex
literal and calls neither ``float`` nor ``complex``, and the formulas of
``rr`` and ``chern`` give ints, not floats, on int inputs.

A scan of the syntax tree, so text in strings and comments does not
count, and every module under ``src/bottcheck`` is covered, new ones too.
"""

import ast
from itertools import product
from pathlib import Path

import pytest

from bottcheck import chern, chow, rr

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


# --- at run time: int inputs give no float ---------------------------------
#
# The scan above cannot see ``/`` on ints, which gives a float.  Every value
# below is a Chern number or an Euler characteristic of an integral bundle,
# so on int inputs each must be an int.

_SMALL = range(-3, 4)


def _all_ints(*values) -> bool:
    return all(type(v) is int for v in values)


def test_chi_plane_on_ints_is_an_int():
    assert all(_all_ints(rr.chi_plane(r, c1, c2))
               for r, c1, c2 in product(range(1, 4), _SMALL, _SMALL))
    assert rr.chi_plane(1, 3, 0) == 10


def test_tensor_classes_on_ints_are_ints():
    for r, s, c1, d1 in product((1, 2, 3), (1, 2, 3), _SMALL, _SMALL):
        assert _all_ints(chern.tensor_c1(r, s, c1, d1),
                         *(chern.tensor_c2(r, s, c1, c2, d1, 1 - c2) for c2 in _SMALL))
    assert chern.tensor_c2(2, 2, 1, 1, 1, 1) == 9


def test_sym_power_classes_on_ints_are_ints():
    for t, c1, c2 in product(range(-2, 8), _SMALL, _SMALL):
        assert _all_ints(*vars(chern.sym_power_classes(t, c1, c2)).values())
    assert vars(chern.sym_power_classes(2, 3, 3)) == {"C1": 9, "C2": 30, "A1": 6, "A2": 15}


def test_splitting_oracle_and_f_on_ints_are_ints():
    for c1, c2, b in product(_SMALL, _SMALL, range(5)):
        e = chern.sym_power_splitting_oracle(c1, c2, b)
        assert _all_ints(e.c1, e.c2)
    for x, y, p, q in product(_SMALL, range(-5, 3), (0, 2), (-1, 3)):
        assert _all_ints(rr.f_formula(x, y, p, q), rr.euler_jaczewski_chi(x, y, p, q))


@pytest.mark.parametrize("c1, c2", [(0, 0), (3, 3), (-1, 2), (5, -4)])
def test_hrr_threefold_on_graded_class_degrees_is_an_int(c1, c2):
    ambient = chow.PlaneBase2(c1, c2)
    tc1, tc2, tc3 = chern.tangent_chern_plane_bundle(ambient)
    H, U = chow.H_class(ambient), chow.U_class(ambient)
    degree = chow.GradedClass.degree
    assert _all_ints(degree(tc3), degree(tc1 * tc2), degree(0 * H))
    for x, y in product(_SMALL, range(4)):
        ell = x * H + y * U
        zero = 0 * ell
        line = rr.hrr_threefold(tc1, tc2, ell, zero, zero, 1, degree)
        twisted = rr.hrr_threefold(tc1, tc2, *chern.rank3_twist(-tc1, tc2, -tc3, ell), 3,
                                   degree)
        assert _all_ints(line, twisted)
    # O(1) pushes forward to E, so chi(X, U) = chi(P^2, E).
    assert rr.hrr_threefold(tc1, tc2, U, 0 * U, 0 * U, 1, degree) == rr.chi_plane(2, c1, c2)
