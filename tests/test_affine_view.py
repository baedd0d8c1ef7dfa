"""Poly.subs with polynomial values, affine forms as plain Polys, and the
one ``__pow__`` of the ring types.

``Poly.subs`` with ``Poly`` values is checked against a term-by-term
expansion written with ``Poly`` arithmetic; powers of a one-variable
``Poly`` against repeated products.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import bottcheck.cli  # noqa: F401  (loads every module that defines a subclass)
from bottcheck.chow import PLANE_RULE, GradedClass
from bottcheck.exact import Poly, _Sparse
from test_int_values import int_when_whole

VARS = ("x", "y", "z")
scalars = st.one_of(
    st.integers(-20, 20),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)
monomials = st.tuples(*(st.integers(0, 2) for _ in VARS)).map(
    lambda es: tuple((v, e) for v, e in zip(VARS, es) if e)
)
polys = st.dictionaries(monomials, scalars, max_size=5).map(Poly)
# Values in VARS and in a variable of their own, so that substituted
# polynomials mix with the variables left.
value_monomials = st.tuples(st.integers(0, 2), st.integers(0, 1)).map(
    lambda es: tuple((v, e) for v, e in zip(("x", "w"), es) if e)
)
poly_values = st.dictionaries(value_monomials, scalars, max_size=3).map(Poly)


def expand(p: Poly, values) -> Poly:
    """p with ``values`` put in, one term at a time, by Poly arithmetic."""
    out = Poly()
    for m, c in p.coeffs:
        term = Poly({(): c})
        for v, e in m:
            term = term * (values[v] ** e if v in values else Poly.sym(v) ** e)
        out = out + term
    return out


@settings(max_examples=200, deadline=None)
@given(polys, st.dictionaries(st.sampled_from(VARS), st.one_of(scalars, poly_values)))
def test_subs_with_poly_values_matches_expansion(p, values):
    got = p.subs(values)
    want = expand(p, values)
    if all(v in values and not isinstance(values[v], Poly) for m, _ in p.coeffs for v, _ in m):
        assert int_when_whole(got) and got == want
    else:
        assert type(got) is Poly and got == want
        assert got.den > 0 and all(c for _, c in got.terms)


def test_a_cancelling_value():
    h, d = Poly.sym("h"), Poly.sym("d")
    got = (h + d).subs({"h": -d})
    assert type(got) is Poly and got == 0


def test_the_conic_template_values_go_in_as_polynomials():
    d = Poly.sym("d")
    form = 2 * Poly.sym("c12H") + Poly.sym("c2H") / 4 + Poly.sym("h")
    got = form.subs({"c12H": 12 - d, "c2H": d + 6})
    assert type(got) is Poly
    assert got == Fraction(51, 2) - Fraction(7, 4) * d + Poly.sym("h")


def test_a_value_with_a_quotient_rule_is_refused():
    U = Poly.sym("U", PLANE_RULE)
    with pytest.raises(ValueError, match="quotient rule"):
        Poly.sym("x").subs({"x": U})


def test_a_plain_poly_value_makes_a_plain_poly():
    x = Poly.sym("x")
    got = (2 * Poly.sym("h") + 1).subs({"h": x * x})
    assert type(got) is Poly and got == 2 * x * x + 1


def test_affine_times_poly_is_a_poly():
    h, x = Poly.sym("h"), Poly.sym("x")
    for got in (h * x, x * h, (h + 1) * (x - 2), h * h, h ** 2):
        assert type(got) is Poly
    assert h * x == Poly({(("h", 1), ("x", 1)): 1})
    assert h ** 2 == h * h == Poly({(("h", 2),): 1})


# --- one __pow__, in _Sparse -------------------------------------------------

one_variable = st.lists(scalars, max_size=4).map(
    lambda cs: Poly({(("x", i),) if i else (): c for i, c in enumerate(cs)}))


@given(one_variable, st.integers(1, 8))
def test_power_is_repeated_product(p, n):
    assert p ** n == p * p ** (n - 1)
    assert p ** 0 == 1


def test_a_negative_power_is_refused():
    with pytest.raises(ValueError, match="negative exponent"):
        Poly.sym("x") ** -1


def test_one_pow_for_every_ring_type():
    assert "__pow__" in vars(_Sparse)
    for cls in (Poly, GradedClass):
        assert "__pow__" not in vars(cls)


def test_poly_and_graded_class_are_the_sparse_ring_types():
    """Every sparse ring in the package is ``Poly`` or
    ``chow.GradedClass``; an affine form is a plain ``Poly``."""

    def below(cls):
        return {c for sub in cls.__subclasses__() for c in (sub, *below(sub))}

    assert below(_Sparse) == {Poly, GradedClass}
