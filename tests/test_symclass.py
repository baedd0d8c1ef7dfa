"""chern.SymClass on the shared int-numerator stored form.

``SymClass`` is checked against ``OldSymClass``, the Fraction-dict body
it replaced, copied here unchanged as the oracle: sums, differences,
negation, scalar and class products, equality and hashing, the weight
truncation of the constructor and of the product, and the stored form
after every operation.
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, strategies as st

from bottcheck.chern import C1_SYM, C2_SYM, C3_SYM, H_SYM, SymClass


def _weight(m):
    i, j, k, l = m
    return i + j + 2 * k + 3 * l


class OldSymClass:
    """The Fraction-dict SymClass, as it stood before int numerators."""

    __slots__ = ("coeffs",)

    def __init__(self, raw=()):
        terms = {}
        for m, c in dict(raw).items():
            c = c if type(c) is Fraction else Fraction(c)
            if c != 0 and _weight(m) <= 3:
                terms[m] = terms.get(m, Fraction(0)) + c
        object.__setattr__(self, "coeffs", tuple(sorted(terms.items())))

    def __setattr__(self, name, value):
        raise AttributeError("SymClass is immutable")

    @staticmethod
    def _coerce(other):
        if isinstance(other, OldSymClass):
            return other
        if isinstance(other, (int, Fraction)):
            return OldSymClass({(0, 0, 0, 0): other})
        return None

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self.coeffs)
        for m, c in o.coeffs:
            terms[m] = terms.get(m, Fraction(0)) + c
        return OldSymClass(terms)

    __radd__ = __add__

    def __neg__(self):
        return OldSymClass({m: -c for m, c in self.coeffs})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return OldSymClass({m: c * other for m, c in self.coeffs})
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms: dict = {}
        for m1, a in self.coeffs:
            for m2, b in o.coeffs:
                m = tuple(x + y for x, y in zip(m1, m2))
                if _weight(m) <= 3:
                    terms[m] = terms.get(m, Fraction(0)) + a * b
        return OldSymClass(terms)

    __rmul__ = __mul__


# --- strategies: the same class built both ways ----------------------------

# Every monomial of weight <= 4, so the truncation of the constructor and
# of the product both get inputs past weighted degree 3.
MONOMIALS = [(i, j, k, l) for i in range(5) for j in range(5) for k in range(3)
             for l in range(2) if _weight((i, j, k, l)) <= 4]
fractions = st.fractions(min_value=-30, max_value=30, max_denominator=12)
scalars = st.one_of(st.integers(-20, 20), fractions)


@st.composite
def pairs(draw):
    """A (SymClass, OldSymClass) pair from the same terms."""
    raw = draw(st.dictionaries(st.sampled_from(MONOMIALS), scalars, max_size=6))
    return SymClass(raw), OldSymClass(raw)


def same(new, old):
    """``new`` is in stored form and holds the terms ``old`` does."""
    assert isinstance(new, SymClass)
    assert type(new.den) is int and new.den > 0
    assert all(type(c) is int and c for _, c in new.terms)
    monos = [m for m, _ in new.terms]
    assert monos == sorted(set(monos)) and all(_weight(m) <= 3 for m in monos)
    assert gcd(new.den, *(c for _, c in new.terms)) == 1
    assert new.terms or new.den == 1
    assert new.coeffs == old.coeffs
    assert all(type(c) is Fraction for _, c in new.coeffs)
    assert new.is_zero() == (not old.coeffs)


@given(pairs())
def test_constructor_truncates_like_oracle(p):
    same(*p)


@given(pairs(), pairs())
def test_sum_difference_and_negation_match_oracle(p, q):
    (a, oa), (b, ob) = p, q
    same(a + b, oa + ob)
    same(a - b, oa - ob)
    same(-a, -oa)


@given(pairs(), scalars)
def test_number_operands_match_oracle(p, n):
    a, oa = p
    same(a + n, oa + n)
    same(n + a, n + oa)
    same(a - n, oa - n)
    same(n - a, n - oa)
    same(a * n, oa * n)
    same(n * a, n * oa)


@given(pairs(), pairs())
def test_product_truncates_like_oracle(p, q):
    (a, oa), (b, ob) = p, q
    same(a * b, oa * ob)
    same(b * a, ob * oa)


@given(pairs(), pairs(), scalars)
def test_equality_and_hash_match_oracle(p, q, n):
    (a, oa), (b, ob) = p, q
    assert (a == b) == (oa == ob)
    assert (a == n) == (oa == n)
    twin = SymClass(dict(a.coeffs))
    assert twin == a and hash(twin) == hash(a)


def test_generators_and_truncation():
    assert C1_SYM * C2_SYM == SymClass({(1, 0, 1, 0): 1})
    assert (C1_SYM * C1_SYM * C1_SYM * H_SYM).is_zero()
    assert (C3_SYM * H_SYM).is_zero() and (C2_SYM * C2_SYM).is_zero()
    assert SymClass({(0, 0, 2, 0): 5}) == 0
    assert (-3 * H_SYM - C1_SYM / 2).render() == "-3*H - 1/2*c1"
    assert SymClass().render() == "0" and (C1_SYM * C2_SYM - 1).render() == "-1 + c1*c2"
