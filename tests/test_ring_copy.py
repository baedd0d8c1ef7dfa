"""copy, deepcopy and pickle of the ring types.

Every ring element refuses assignment, so the default protocol of
``copy`` and ``pickle``, which assigns the slots of a new instance,
cannot rebuild one; ``__reduce__`` rebuilds it through ``_new`` from its
stored form instead, and leaves ``Poly``'s compiled int code behind.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from bottcheck.bottcases import Verdict, builtin_registry, evaluate_case
from bottcheck.chow import PLANE_RULE, H_class, LineBase4, PlaneBase2, U_class
from bottcheck.exact import Poly, UniPoly
from bottcheck.theorems import ThreefoldNumerics, thm1_closed

ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
}


def _plane(name):
    return Poly.sym(name, PLANE_RULE)


ELEMENTS = {
    "Poly": Poly.sym("x") ** 2 / 3 - 7 * Poly.sym("y") + 1,
    "Poly zero": Poly(),
    "Poly with a rule": _plane("U") ** 2 + _plane("H") * _plane("c1") / 2,
    "affine Poly": (1 + 2 * Poly.sym("h") - Poly.sym("c13")) / 4,
    "constant Poly": Poly({(): -5}),
    "UniPoly": UniPoly((Fraction(1, 5), Fraction(-2, 5), 0, Fraction(3, 5))),
    "UniPoly zero": UniPoly(),
    "GradedClass plane": H_class(PlaneBase2(3, 3)) * U_class(PlaneBase2(3, 3)) / 2,
    "GradedClass line": U_class(LineBase4((0, 0, 1, 2))) ** 3,
    "Poly in Chern symbols": Poly.sym("c1") * Poly.sym("c2") / 2 - Poly.sym("H") ** 3,
}


@pytest.mark.parametrize("way", sorted(ROUND_TRIPS))
@pytest.mark.parametrize("name", sorted(ELEMENTS))
def test_a_ring_element_round_trips(name, way):
    x = ELEMENTS[name]
    y = ROUND_TRIPS[way](x)
    assert type(y) is type(x)
    assert y == x and hash(y) == hash(x)
    assert (y.terms if hasattr(y, "terms") else y.num) == (
        x.terms if hasattr(x, "terms") else x.num
    )
    assert y.den == x.den
    assert y.render() == x.render()


@pytest.mark.parametrize("way", sorted(ROUND_TRIPS))
def test_a_copy_keeps_working_as_a_ring_element(way):
    x = ROUND_TRIPS[way](ELEMENTS["Poly with a rule"])
    assert x * _plane("U") == ELEMENTS["Poly with a rule"] * _plane("U")
    u = ROUND_TRIPS[way](ELEMENTS["UniPoly"])
    assert u(2) == ELEMENTS["UniPoly"](2)


@pytest.mark.parametrize("name", ["Poly", "UniPoly"])
def test_a_copy_is_still_immutable(name):
    y = copy.deepcopy(ELEMENTS[name])
    with pytest.raises(AttributeError, match="immutable"):
        y.den = 2


def test_pickle_leaves_the_compiled_code_behind():
    form = thm1_closed(ThreefoldNumerics())
    values = {"h": 1, "c13": 2, "c12H": 3, "c1H2": 4, "c2H": 5, "H3": 6}
    want = form.subs(values)  # compiles the new form
    assert hasattr(form, "_compiled")
    loaded = pickle.loads(pickle.dumps(form))
    assert not hasattr(loaded, "_compiled")
    assert loaded.subs(values) == want
    assert None in loaded._compiled  # compiled again on its first subs


@pytest.mark.parametrize("way", sorted(ROUND_TRIPS))
def test_a_verdict_round_trips(way):
    v = Verdict(Poly({(): 3}), "x", "")
    assert ROUND_TRIPS[way](v) == v
    for rec in builtin_registry():
        verdict = evaluate_case(rec)
        got = ROUND_TRIPS[way](verdict)
        assert got == verdict and hash(got) == hash(verdict)
