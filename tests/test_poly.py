"""exact.Poly and exact.QuotientRule.

Arithmetic and substitution are checked against a plain-Fraction dict
polynomial over three variables; the plane quotient rule is checked
against GradedClass products in PlaneBase2 at integer (c1, c2).
"""

import time
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from bottcheck.chow import PLANE_RULE, GradedClass, PlaneBase2
from bottcheck.exact import Poly, QuotientRule, UniPoly
from test_int_values import int_when_whole

VARS = ("x", "y", "z")

# --- the oracle: {exponent triple: Fraction} over VARS --------------------


def o_clean(d):
    return {m: c for m, c in d.items() if c}


def o_add(a, b, sign=1):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + sign * c
    return o_clean(out)


def o_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return o_clean(out)


def o_scale(a, s):
    return o_clean({m: c * s for m, c in a.items()})


def o_subs(a, values):
    out = {}
    for m, c in a.items():
        rest = []
        for v, e in zip(VARS, m):
            if v in values:
                c = c * Fraction(values[v]) ** e
                rest.append(0)
            else:
                rest.append(e)
        rest = tuple(rest)
        out[rest] = out.get(rest, Fraction(0)) + c
    return o_clean(out)


def to_poly(d, rule=None):
    return Poly({tuple(zip(VARS, m)): c for m, c in d.items()}, rule)


def from_poly(p):
    out = {}
    for m, c in p.terms:
        exps = dict(m)
        assert set(exps) <= set(VARS)
        out[tuple(exps.get(v, 0) for v in VARS)] = Fraction(c, p.den)
    return out


def variables(p):
    return {v for m, _ in p.terms for v, _ in m}


def assert_stored_form(p):
    assert p.den > 0
    assert all(type(c) is int and c for _, c in p.terms)
    monos = [m for m, _ in p.terms]
    assert monos == sorted(monos) and len(set(monos)) == len(monos)
    for m in monos:
        assert list(m) == sorted(m) and all(e >= 1 for _, e in m)
    if p.terms:
        assert gcd(p.den, *(c for _, c in p.terms)) == 1
    else:
        assert p.den == 1


rationals = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6))
scalars = st.one_of(st.integers(-20, 20), rationals)
nonzero = scalars.filter(lambda s: s != 0)
monos = st.tuples(*(st.integers(0, 3) for _ in VARS))
polys = st.dictionaries(monos, rationals, max_size=6).map(o_clean)
values = st.one_of(st.integers(-9, 9), rationals)


@settings(max_examples=200, deadline=None)
@given(polys, polys, scalars, nonzero)
def test_arithmetic_matches_oracle(a, b, s, d):
    pa, pb = to_poly(a), to_poly(b)
    cases = [
        (pa + pb, o_add(a, b)),
        (pa - pb, o_add(a, b, -1)),
        (pa * pb, o_mul(a, b)),
        (-pa, o_scale(a, -1)),
        (pa * s, o_scale(a, Fraction(s))),
        (s * pa, o_scale(a, Fraction(s))),
        (pa + s, o_add(a, {(0, 0, 0): Fraction(s)})),
        (s - pa, o_add({(0, 0, 0): Fraction(s)}, a, -1)),
        (pa / d, o_scale(a, 1 / Fraction(d))),
        (pa ** 2, o_mul(a, a)),
    ]
    for got, want in cases:
        assert from_poly(got) == want
        assert_stored_form(got)
    assert (pa == pb) == (a == b)
    assert pa * pb == pb * pa and hash(pa * pb) == hash(pb * pa)
    assert pa ** 0 == 1


@settings(max_examples=200, deadline=None)
@given(polys, st.dictionaries(st.sampled_from(VARS), values))
def test_subs_matches_oracle(a, vals):
    p = to_poly(a)
    got = p.subs(vals)
    want = o_subs(a, vals)
    if variables(p) <= set(vals):
        assert int_when_whole(got)
        assert got == want.get((0, 0, 0), 0)
    else:
        assert isinstance(got, Poly)
        assert_stored_form(got)
        assert from_poly(got) == want


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.integers(0, 5), rationals, max_size=6), st.sampled_from(VARS))
def test_as_unipoly_matches_coefficients(d, var):
    p = Poly({((var, e),): c for e, c in d.items()})
    u = p.as_unipoly(var)
    assert isinstance(u, UniPoly)
    padded = u.coeffs + (0,) * (7 - len(u.coeffs))
    assert padded == tuple(d.get(e, 0) for e in range(7))
    for t in range(-3, 4):
        assert u(t) == p.subs({var: t})


def test_subs_result_type_depends_only_on_the_variables_given():
    x, y = Poly.sym("x"), Poly.sym("y")
    p = y * (x + 1)
    assert isinstance(p.subs({"y": 0}), Poly) and p.subs({"y": 0}) == 0
    assert p.subs({"x": 1, "y": 2, "w": 5}) == 4
    assert type(p.subs({"x": 1, "y": Fraction(4, 2)})) is int
    assert type(p.subs({"x": Fraction(1, 2), "y": 1})) is Fraction


def test_as_unipoly_rejects_other_variables():
    x, y = Poly.sym("x"), Poly.sym("y")
    with pytest.raises(ValueError):
        (x * y).as_unipoly("x")
    assert Poly().as_unipoly("x") == UniPoly()
    assert (x * 0 + 3).as_unipoly("x") == UniPoly((3,))


def test_coeff_extracts_a_polynomial_in_the_other_variables():
    x, y, z = (Poly.sym(v) for v in VARS)
    p = 3 * x * x * y + z * x * x * y - x * x + y / 2
    assert p.coeff({"x": 2, "y": 1}) == 3 + z
    assert p.coeff({"x": 2, "y": 0}) == -1
    assert p.coeff({"x": 0}) == y / 2


# --- quotient rules ---------------------------------------------------------


def plane_poly(raw):
    """A Poly under PLANE_RULE from {(i, j): c}, the classes H^i U^j."""
    return Poly({(("H", i), ("U", j)): c for (i, j), c in raw.items()}, PLANE_RULE)


def at(p, c1, c2):
    """The GradedClass coefficients of a PLANE_RULE Poly at (c1, c2)."""
    out = {}
    for i, j in product(range(3), range(2)):
        c = p.coeff({"H": i, "U": j}).subs({"c1": c1, "c2": c2})
        if c:
            out[(i, j)] = c
    return out


raw_classes = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), rationals, max_size=5
)


@settings(max_examples=150, deadline=None)
@given(raw_classes, raw_classes, st.integers(-9, 9), st.integers(-9, 9))
def test_plane_rule_matches_graded_class(x, y, c1, c2):
    amb = PlaneBase2(c1, c2)
    px, py = plane_poly(x), plane_poly(y)
    for p in (px, px * py, px * py - px, px * px):
        assert_stored_form(p)
        for m, _ in p.terms:
            exps = dict(m)
            assert exps.get("H", 0) <= 2 and exps.get("U", 0) <= 1
    gx, gy = GradedClass(amb, x), GradedClass(amb, y)
    assert at(px, c1, c2) == dict(gx.coeffs)
    assert at(px * py, c1, c2) == dict((gx * gy).coeffs)
    assert at(px * py - px, c1, c2) == dict((gx * gy - gx).coeffs)


def test_plane_rule_relations():
    H, U, c1, c2 = (Poly.sym(s, PLANE_RULE) for s in ("H", "U", "c1", "c2"))
    assert H ** 3 == 0
    assert U * U == c1 * H * U - c2 * H * H
    assert (H * U) ** 2 == 0
    assert U ** 3 == (c1 * c1 - c2) * H * H * U


def test_operands_must_share_the_rule():
    H = Poly.sym("H", PLANE_RULE)
    with pytest.raises(ValueError, match="rule mismatch"):
        H + Poly.sym("H")
    with pytest.raises(ValueError):
        H.subs({"H": 1})
    with pytest.raises(ValueError):
        H.as_unipoly("H")
    assert (H + 1).rule == PLANE_RULE and (2 * H).rule == PLANE_RULE


def test_rule_validation():
    x, y = Poly.sym("x"), Poly.sym("y")
    with pytest.raises(ValueError):
        QuotientRule(((2 * x, 0),))
    with pytest.raises(ValueError):
        QuotientRule(((x + y, 0),))
    with pytest.raises(ValueError):
        QuotientRule(((x, y / 2),))
    rule = QuotientRule(((x * x, y),))
    assert rule == QuotientRule(((x * x, y),)) and hash(rule) == hash(QuotientRule(((x * x, y),)))
    X = Poly.sym("x", rule)
    assert X ** 5 == Poly({(("x", 1), ("y", 2)): 1}, rule)


def test_huge_power_is_refused_before_it_is_built():
    """A power squares its way up and checks every intermediate, so an
    exponent far past the printable size fails at once."""
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"the power \^30000000"):
        Poly({(): 2}) ** 30_000_000
    assert time.perf_counter() - start < 5


_POWER_BASES = [
    Poly({(("x", 1),): Fraction(1, 2), (("y", 2),): -3, (): 1}),
    1 + Poly.sym("U", PLANE_RULE) - 2 * Poly.sym("H", PLANE_RULE),
    1 + Poly.sym("c1") / 3 - Poly.sym("H") + 2 * Poly.sym("c2"),
]


@pytest.mark.parametrize("x", _POWER_BASES, ids=["poly", "plane-rule", "chern-symbols"])
@pytest.mark.parametrize("n", range(1, 9))
def test_power_is_one_more_factor(x, n):
    assert x ** n == x * x ** (n - 1)
    assert x ** 0 == 1 and (x ** 0).ring == x.ring
