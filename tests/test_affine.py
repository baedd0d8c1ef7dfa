"""Affine forms as Polys of degree at most 1, and Poly.as_unipoly with
values.

A ``Poly`` of degree at most 1 is checked against ``OldAffine``, the
Fraction-dict affine expression that int numerators replaced, copied
here unchanged as the oracle: arithmetic, substitution of numbers and of
expressions, the coefficients, render, equality and hashing, and the
stored form after every operation.
``Poly.as_unipoly(var, values)`` is checked against
``subs(values).as_unipoly(var)``.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, strategies as st

from bottcheck.chow import PLANE_RULE
from bottcheck.exact import Poly, UniPoly
from test_int_values import int_when_whole


class OldAffine:
    """The Fraction-dict Affine, as it stood before int numerators."""

    __slots__ = ("const", "terms")

    def __init__(self, const=0, terms=None):
        const = const if type(const) is Fraction else Fraction(const)
        object.__setattr__(self, "const", const)
        cleaned = {}
        for s, c in (terms or {}).items():
            c = c if type(c) is Fraction else Fraction(c)
            if c != 0:
                cleaned[s] = c
        object.__setattr__(self, "terms", tuple(sorted(cleaned.items())))

    def __setattr__(self, name, value):
        raise AttributeError("Affine is immutable")

    @staticmethod
    def sym(name):
        return OldAffine(0, {name: 1})

    @staticmethod
    def _coerce(other):
        if isinstance(other, OldAffine):
            return other
        if isinstance(other, (int, Fraction)):
            return OldAffine(other)
        return None

    def coeff(self, name):
        for s, c in self.terms:
            if s == name:
                return c
        return Fraction(0)

    def symbols(self):
        return tuple(s for s, _ in self.terms)

    def is_constant(self):
        return not self.terms

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.const == o.const and self.terms == o.terms

    def __hash__(self):
        return hash((self.const, self.terms))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for s, c in o.terms:
            terms[s] = terms.get(s, Fraction(0)) + c
        return OldAffine(self.const + o.const, terms)

    __radd__ = __add__

    def __neg__(self):
        return OldAffine(-self.const, {s: -c for s, c in self.terms})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return OldAffine(self.const * scalar, {s: c * scalar for s, c in self.terms})

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return OldAffine(self.const / scalar, {s: c / scalar for s, c in self.terms})

    def subs(self, values):
        const = self.const
        terms = {}
        for s, c in self.terms:
            if s not in values:
                terms[s] = terms.get(s, 0) + c
                continue
            v = values[s]
            if isinstance(v, OldAffine):
                const += c * v.const
                for t, d in v.terms:
                    terms[t] = terms.get(t, 0) + c * d
            else:
                const += c * (v if isinstance(v, (int, Fraction)) else Fraction(v))
        out = OldAffine(const, terms)
        return out.const if out.is_constant() else out

    def render(self):
        parts = []
        if self.const != 0 or not self.terms:
            parts.append(str(self.const))
        for s, c in self.terms:
            mag = abs(c)
            body = s if mag == 1 else f"{mag}*{s}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


# --- strategies: the same expression built both ways -----------------------

SYMBOLS = ("c13", "d", "h", "x")
fractions = st.fractions(min_value=-60, max_value=60, max_denominator=24)
scalars = st.one_of(st.integers(-40, 40), fractions, fractions.map(lambda f: Fraction(f.numerator)))
nonzero = scalars.filter(bool)


def affine(const, terms) -> Poly:
    """const + the sum of c * s over the {symbol s: c} ``terms``."""
    return Poly({(): const, **{((s, 1),): c for s, c in terms.items()}})


def view(e: Poly) -> tuple:
    """(const, the sorted (symbol, coefficient) pairs) of a Poly of degree
    at most 1, as Fractions: the fields of an OldAffine."""
    const, terms = Fraction(0), []
    for m, c in e.coeffs:
        if not m:
            const = c
        else:
            ((s, k),) = m
            assert k == 1
            terms.append((s, c))
    return const, tuple(terms)


@st.composite
def pairs(draw):
    """A (Poly, OldAffine) pair from the same constant and terms."""
    const = draw(scalars)
    terms = draw(st.dictionaries(st.sampled_from(SYMBOLS), scalars, max_size=4))
    return affine(const, terms), OldAffine(const, terms)


def check_stored_form(e: Poly):
    assert type(e.den) is int and e.den > 0
    assert all(type(n) is int and n for _, n in e.terms)
    monomials = [m for m, _ in e.terms]
    assert monomials == sorted(set(monomials))
    assert all(m == () or (len(m) == 1 and type(m[0][0]) is str and m[0][1] == 1)
               for m in monomials)
    assert gcd(e.den, *(n for _, n in e.terms)) == 1


def same(new, old):
    """``new`` (a Poly, or a number: an int when whole) holds the value
    ``old`` does."""
    if isinstance(old, OldAffine):
        assert type(new) is Poly
        check_stored_form(new)
        const, terms = view(new)
        assert const == old.const and terms == old.terms
        assert tuple(s for s, _ in terms) == old.symbols()
        assert new.render() == old.render()
        for s in SYMBOLS:
            assert new.coeff({s: 1}) == old.coeff(s)
    else:
        assert type(old) is Fraction and int_when_whole(new) and new == old


@given(pairs())
def test_constructor_matches_oracle(p):
    same(*p)


@given(pairs(), pairs())
def test_sum_and_difference_match_oracle(p, q):
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


@given(pairs(), nonzero)
def test_division_matches_oracle(p, n):
    a, oa = p
    same(a / n, oa / n)


@given(pairs())
def test_division_by_zero_raises(p):
    with pytest.raises(ZeroDivisionError):
        p[0] / 0
    with pytest.raises(ZeroDivisionError):
        p[0] / Fraction(0)


@given(pairs(), st.dictionaries(st.sampled_from(SYMBOLS), scalars, max_size=4))
def test_subs_numbers_matches_oracle(p, values):
    a, oa = p
    same(a.subs(values), oa.subs(values))


@given(pairs(), st.dictionaries(st.sampled_from(SYMBOLS), st.one_of(scalars, pairs()),
                                max_size=4))
def test_subs_affines_matches_oracle(p, raw):
    a, oa = p
    new = {s: v[0] if isinstance(v, tuple) else v for s, v in raw.items()}
    old = {s: v[1] if isinstance(v, tuple) else v for s, v in raw.items()}
    want = oa.subs(old)
    # A Poly value keeps the result a Poly, even a constant one.
    if any(isinstance(new.get(s), Poly) or s not in new for s in oa.symbols()):
        want = want if isinstance(want, OldAffine) else OldAffine(want)
    same(a.subs(new), want)


@given(pairs(), st.dictionaries(st.sampled_from(SYMBOLS), scalars,
                                min_size=len(SYMBOLS), max_size=len(SYMBOLS)))
def test_full_subs_makes_a_number(p, values):
    a, oa = p
    assert set(values) == set(SYMBOLS)
    got = a.subs(values)
    assert int_when_whole(got) and got == oa.subs(values)


@given(pairs(), pairs())
def test_equality_and_hash_match_oracle(p, q):
    (a, oa), (b, ob) = p, q
    assert (a == b) == (oa == ob)
    const, terms = view(a)
    assert (a == const) == (oa == oa.const)
    twin = affine(const, dict(terms))
    assert twin == a and hash(twin) == hash(a)
    assume(a != b)
    assert a - b != 0


def test_equal_values_of_different_types_store_alike():
    for const in (3, Fraction(3), Fraction(6, 2)):
        e = affine(const, {"h": Fraction(4, 2), "d": 0})
        assert (e.terms, e.den) == ((((), 3), ((("h", 1),), 2)), 1)
    assert Poly() == 0 and (Poly().terms, Poly().den) == ((), 1)


def test_subs_carries_one_running_denominator():
    e = affine(Fraction(1, 6), {"x": Fraction(1, 4), "h": 1})
    out = e.subs({"x": Fraction(2, 9), "h": affine(Fraction(1, 10), {"d": Fraction(3, 7)})})
    assert out == affine(Fraction(1, 6) + Fraction(1, 18) + Fraction(1, 10),
                         {"d": Fraction(3, 7)})
    check_stored_form(out)


# --- Poly.as_unipoly with values -------------------------------------------

PVARS = ("b", "c1", "c2")
monomials = st.tuples(*(st.integers(0, 3) for _ in PVARS)).map(
    lambda es: tuple((v, e) for v, e in zip(PVARS, es) if e)
)
polys = st.dictionaries(monomials, scalars, max_size=8).map(Poly)
values = st.one_of(
    st.integers(-30, 30),
    st.integers(-30, 30).map(Fraction),
    fractions,
)


def reference_unipoly(p: Poly, var: str, vals) -> UniPoly:
    out = p.subs(vals)
    return out.as_unipoly(var) if isinstance(out, Poly) else UniPoly((out,))


@given(polys, st.sampled_from(PVARS), st.fixed_dictionaries(
    {}, optional={v: values for v in PVARS + ("unused",)}))
def test_as_unipoly_with_values_matches_subs(p, var, raw):
    vals = {v: x for v, x in raw.items() if v != var}
    for v in PVARS:
        if v != var:
            vals.setdefault(v, 1)
    got = p.as_unipoly(var, vals)
    want = reference_unipoly(p, var, vals)
    assert (got.num, got.den) == (want.num, want.den)


def test_as_unipoly_rejects_a_rule():
    b, U = Poly.sym("b", PLANE_RULE), Poly.sym("U", PLANE_RULE)
    with pytest.raises(ValueError, match="quotient rule"):
        (b * U).as_unipoly("b", {"U": 1})


@pytest.mark.parametrize("vals", [{}, {"c1": 2}, {"c2": Fraction(1, 3)}])
def test_as_unipoly_rejects_a_leftover_variable(vals):
    b, c1, c2 = (Poly.sym(v) for v in PVARS)
    with pytest.raises(ValueError, match="not a polynomial in b alone"):
        (b * c1 + c2).as_unipoly("b", vals)


def test_as_unipoly_rejects_a_value_for_its_own_variable():
    with pytest.raises(ValueError, match="takes no value"):
        Poly.sym("b").as_unipoly("b", {"b": 2})
