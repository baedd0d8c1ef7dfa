"""The stored form of every result of the scalar paths.

``x * n``, ``n * x``, ``x / n`` and ``-x`` on a ``Poly`` or a
``GradedClass`` keep the stored order of ``x`` and skip
``_Sparse._store``'s filter and sort (``_Sparse._scaled``,
``_Sparse.__neg__``); ``UniPoly._store`` strips trailing zeros by index
and ``UniPoly.__call__`` runs Horner's rule on ints at an int.
Each result must still be in stored form:

* sorted, distinct monomials (for a ``UniPoly``, no trailing zero);
* no zero numerator;
* ``den > 0`` and the gcd of ``den`` and every numerator is 1;
* zero is ``((), 1)``;

and equal, term for term, to what the general path builds: ``_new`` for
the sparse types, the list round trip that ``UniPoly._store`` was for
``UniPoly``.
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from bottcheck.chow import PLANE_RULE, GradedClass, LineBase4, PlaneBase2
from bottcheck.exact import Poly, UniPoly
from test_int_values import int_when_whole

_ints = st.integers(-60, 60)
_rationals = _ints | st.builds(Fraction, _ints, st.integers(1, 36))
_scalars = st.sampled_from([0, 1, -1, Fraction(0), Fraction(1), Fraction(-1)]) | _rationals
_nonzero_scalars = _scalars.filter(bool)

_monomials = st.dictionaries(st.sampled_from(["x", "y", "H", "U", "c1"]),
                             st.integers(1, 3), max_size=3).map(lambda d: tuple(d.items()))
_polys = st.builds(
    Poly,
    st.dictionaries(_monomials, _rationals, max_size=6),
    st.sampled_from([None, PLANE_RULE]),
)
_ambients = (st.builds(PlaneBase2, st.integers(-9, 9), st.integers(-9, 9))
             | st.builds(LineBase4, st.tuples(*[st.integers(-5, 5)] * 4)))
_graded = st.builds(
    GradedClass,
    _ambients,
    st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 5)), _rationals,
                    max_size=6),
)
_sparse = _polys | _graded
_unipolys = st.builds(UniPoly, st.lists(_rationals | st.just(0), max_size=6))


def assert_sparse_stored_form(x):
    terms, den = x._terms, x.den
    assert type(terms) is tuple and type(den) is int
    monomials = [m for m, _ in terms]
    assert monomials == sorted(set(monomials))
    assert all(type(c) is int and c != 0 for _, c in terms)
    assert den > 0 and gcd(den, *[c for _, c in terms]) == 1
    if not terms:
        assert den == 1


def assert_unipoly_stored_form(x):
    num, den = x.num, x.den
    assert type(num) is tuple and type(den) is int
    assert all(type(c) is int for c in num)
    assert not num or num[-1] != 0
    assert den > 0 and gcd(den, *num) == 1
    if not num:
        assert den == 1


def general_scaled(x, f: Fraction):
    """``x * f`` through ``_new``: filtered, sorted and cancelled."""
    p, q = f.numerator, f.denominator
    return type(x)._new([(m, c * p) for m, c in x._terms], x.den * q, x.ring)


def same_sparse(got, want):
    assert type(got) is type(want)
    assert got.ring is want.ring
    assert (got._terms, got.den) == (want._terms, want.den)


def reference_unipoly(num, den):
    """The stored form of ``num / den`` by the list round trip."""
    num = list(num)
    while num and not num[-1]:
        num.pop()
    if not num:
        return (), 1
    g = gcd(den, *num)
    return tuple(n // g for n in num), den // g


@settings(max_examples=300, deadline=None)
@given(_sparse, _scalars)
def test_a_sparse_scalar_multiple_is_in_stored_form(x, n):
    want = general_scaled(x, Fraction(n))
    for got in (x * n, n * x):
        assert_sparse_stored_form(got)
        same_sparse(got, want)
    assert_sparse_stored_form(x._coerce(n))
    same_sparse(x._coerce(n), general_scaled(x._coerce(1), Fraction(n)))


@settings(max_examples=200, deadline=None)
@given(_sparse, _nonzero_scalars)
def test_a_sparse_quotient_is_in_stored_form(x, n):
    got = x / n
    assert_sparse_stored_form(got)
    same_sparse(got, general_scaled(x, 1 / Fraction(n)))


@settings(max_examples=200, deadline=None)
@given(_sparse)
def test_a_sparse_negation_is_in_stored_form(x):
    got = -x
    assert_sparse_stored_form(got)
    same_sparse(got, general_scaled(x, Fraction(-1)))
    same_sparse(-got, x)


@settings(max_examples=200, deadline=None)
@given(st.lists(_ints, max_size=8), st.integers(1, 60))
def test_unipoly_store_strips_and_cancels_as_the_round_trip_did(num, den):
    for numerators in (num, tuple(num)):
        got = UniPoly._new(numerators, den)
        assert_unipoly_stored_form(got)
        assert (got.num, got.den) == reference_unipoly(num, den)


@settings(max_examples=300, deadline=None)
@given(_unipolys, st.sampled_from([0, 1, -1]) | st.integers(-10 ** 6, 10 ** 6))
def test_unipoly_at_an_int_equals_it_at_the_fraction(x, n):
    got = x(n)
    assert int_when_whole(got) and int_when_whole(x(Fraction(n)))
    assert got == x(Fraction(n))
    assert got == sum((c * Fraction(n) ** i for i, c in enumerate(x.coeffs)), Fraction(0))
