"""chow.LINE_RULE, and each ring's relations stated once.

The line rule is checked as ``tests/test_poly.py`` checks the plane rule:
classes under ``LINE_RULE`` with s1 put in as the sum of the twists must
equal ``GradedClass`` over ``LineBase4``.  ``GradedClass`` itself is
checked in ``tests/test_chow.py`` against relations the tests state on
their own.
"""

import dataclasses
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from bottcheck import chow
from bottcheck.chow import LINE_RULE, GradedClass, LineBase4, PlaneBase2
from bottcheck.exact import Poly, QuotientRule

rationals = st.one_of(
    st.integers(-9, 9), st.fractions(min_value=-9, max_value=9, max_denominator=6)
)
raw_classes = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 7)), rationals, max_size=5
)
twists = st.lists(st.integers(-5, 5), min_size=4, max_size=4).map(tuple)


def line_poly(raw):
    """A Poly under LINE_RULE from {(i, j): c}, the classes H^i U^j."""
    return Poly({(("H", i), ("U", j)): c for (i, j), c in raw.items()}, LINE_RULE)


def at(p, s1):
    """The GradedClass coefficients of a LINE_RULE Poly at s1."""
    out = {}
    for i, j in product(range(2), range(4)):
        c = p.coeff({"H": i, "U": j}).subs({"s1": s1})
        if c:
            out[(i, j)] = c
    return out


@settings(max_examples=150, deadline=None)
@given(raw_classes, raw_classes, twists)
def test_line_rule_matches_graded_class(x, y, a):
    amb, s1 = LineBase4(a), sum(a)
    px, py = line_poly(x), line_poly(y)
    for p in (px, px * py, px * py - px, px * px):
        for m, _ in p.terms:
            exps = dict(m)
            assert exps.get("H", 0) <= 1 and exps.get("U", 0) <= 3
    gx, gy = GradedClass(amb, x), GradedClass(amb, y)
    assert at(px, s1) == dict(gx.coeffs)
    assert at(px * py, s1) == dict((gx * gy).coeffs)
    assert at(px * py - px, s1) == dict((gx * gy - gx).coeffs)


def test_line_rule_relations():
    H, U, s1 = (Poly.sym(s, LINE_RULE) for s in ("H", "U", "s1"))
    assert H ** 2 == 0
    assert U ** 4 == s1 * H * U ** 3
    assert U ** 5 == 0
    assert (1 + U) ** 4 == 1 + 4 * U + 6 * U ** 2 + 4 * U ** 3 + s1 * H * U ** 3


def test_the_ambients_put_their_numbers_into_the_rules():
    assert LineBase4((1, -2, 0, 4)).relations == (
        (2, 0, ()), (0, 4, (((1, 3), 3),)))
    assert LineBase4((1, -1, 0, 0)).relations == ((2, 0, ()), (0, 4, ()))
    assert PlaneBase2(3, -5).relations == (
        (3, 0, ()), (0, 2, (((1, 1), 3), ((2, 0), 5))))
    assert PlaneBase2(0, 2).relations == ((3, 0, ()), (0, 2, (((2, 0), -2),)))


def test_the_skeletons_are_split_once_per_rule_value():
    # An equal rule built again shares the skeletons; a rule with c2's
    # sign flipped, as the mutation table patches it in, gets its own.
    assert chow._skeletons(chow._plane_rule()) is chow._skeletons(chow.PLANE_RULE)
    c1, c2, H, U = (Poly.sym(s) for s in ("c1", "c2", "H", "U"))
    flipped = QuotientRule(((H ** 3, 0), (U ** 2, c1 * H * U + c2 * H * H)))
    assert chow._at(flipped, {"c1": 3, "c2": -5}) == (
        (3, 0, ()), (0, 2, (((1, 1), 3), ((2, 0), -5))))
    assert PlaneBase2(3, -5).relations == (
        (3, 0, ()), (0, 2, (((1, 1), 3), ((2, 0), 5))))


def test_the_ambients_keep_their_dataclass_contract():
    # Each fills __dict__ in one update; relations stay outside the fields.
    assert [f.name for f in dataclasses.fields(PlaneBase2)] == ["c1", "c2"]
    assert [f.name for f in dataclasses.fields(LineBase4)] == ["twists"]
    plane, line = PlaneBase2(Fraction(6, 2), -5), LineBase4([1, -2, 0, Fraction(4)])
    assert (type(plane.c1), plane.c1, plane.c2) == (int, 3, -5)
    assert line.twists == (1, -2, 0, 4) and type(line.twists[3]) is int
    assert plane == PlaneBase2(c1=3, c2=-5) and hash(plane) == hash(PlaneBase2(3, -5))
    assert plane != PlaneBase2(3, 5) and line == LineBase4(twists=(1, -2, 0, 4))
    assert repr(plane) == "PlaneBase2(c1=3, c2=-5)"
    assert repr(line) == "LineBase4(twists=(1, -2, 0, 4))"
    for ambient in (plane, line):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ambient.relations = ()
    with pytest.raises(ValueError, match=r"^c2 must be an integer, got Fraction\(1, 2\)$"):
        PlaneBase2(1, Fraction(1, 2))
    with pytest.raises(ValueError, match=r"^twist must be an integer, got 'x'$"):
        LineBase4((0, 0, 1, "x"))


def test_each_ring_is_stated_once():
    """The numeric relations come from the rules alone: no product of
    chow's own, and no ring-specific reduction branch."""
    own = vars(chow)
    assert "_product" not in own
    assert "_product" in vars(GradedClass)
    assert set(own) >= {"LINE_RULE", "PLANE_RULE", "_reduce"}
