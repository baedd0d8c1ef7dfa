import io
import sys
from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import given, strategies as st

from bottcheck import bottcases, cli, rr, theorems
from bottcheck.chow import PLANE_RULE, GradedClass, PlaneBase2
from bottcheck.exact import Poly, UniPoly, binom, check_digits, parse_rational
from fraction_poly import FractionPoly
from test_int_values import int_when_whole


class TestBinom:
    def test_empty_product(self):
        assert binom(5, 0) == 1

    def test_negative_upper(self):
        assert binom(-1, 4) == 1
        assert binom(-2, 3) == -4

    def test_vanishing_band(self):
        assert binom(2, 3) == 0

    def test_negative_lower_rejected(self):
        with pytest.raises(ValueError):
            binom(3, -1)

    @pytest.mark.parametrize("n", range(-10, 11))
    @pytest.mark.parametrize("k", range(1, 9))
    def test_pascal_identity(self, n, k):
        assert binom(n, k) == binom(n - 1, k - 1) + binom(n - 1, k)

    def test_integer_valued(self):
        for n in range(-8, 9):
            for k in range(0, 6):
                assert binom(n, k).denominator == 1


#: The variable t, as a Poly: one-variable arithmetic runs on Poly.
T = Poly.sym("t")


def poly(cs):
    """The one-variable Poly in t with coefficients cs, lowest power first."""
    return Poly({(("t", i),) if i else (): c for i, c in enumerate(cs)})


def view(x):
    """A Poly in t, or the number ``subs`` gives for a constant, as the
    UniPoly the package reads it as."""
    return x.as_unipoly("t") if isinstance(x, Poly) else UniPoly((x,))


class TestBinomPoly:
    """``binom`` on ``Poly`` in one variable, the ring it serves at run
    time."""

    def test_shift3_k3_at_zero(self):
        assert binom(T + 3, 3).subs({"t": 0}) == 1

    def test_shift3_k4(self):
        p = binom(T + 3, 4)
        assert p.subs({"t": -1}) == 0  # binom(2, 4)
        assert p.subs({"t": -4}) == 1  # binom(-1, 4)

    def test_identity(self):
        assert binom(T, 1) == T

    @pytest.mark.parametrize("shift", [-2, 0, 1, 3])
    @pytest.mark.parametrize("k", [0, 1, 2, 4])
    def test_matches_binom_on_integers(self, shift, k):
        p = binom(T + shift, k).as_unipoly("t")
        for n in range(-10, 11):
            assert p(n) == binom(n + shift, k)

    def test_poly_upper_argument(self):
        # binom(2t + 1, 2) at t = 3 is binom(7, 2)
        p = binom(2 * T + 1, 2)
        assert p.subs({"t": 3}) == binom(7, 2)

    def test_zeroth_is_the_unit_of_the_ring(self):
        one = binom(T + 5, 0)
        assert isinstance(one, Poly) and one == 1 and one.ring is None
        one = binom(Poly.sym("U", PLANE_RULE), 0)
        assert isinstance(one, Poly) and one == 1 and one.ring is PLANE_RULE
        assert type(binom(Fraction(1, 2), 0)) is Fraction

    @pytest.mark.parametrize("k", range(6))
    def test_sparse_upper_argument_matches_numbers(self, k):
        p = binom(Poly.sym("x") - 2, k)
        for x in (-3, 0, 4, Fraction(5, 2)):
            assert p.subs({"x": x}) == binom(x - 2, k)


class TestUniPoly:
    def test_evaluate(self):
        p = UniPoly((-1, 0, 1))
        assert p(Fraction(3, 2)) == Fraction(5, 4)

    def test_zero_degree_marker(self):
        assert UniPoly().degree is None
        assert UniPoly((0, 0)).degree is None
        assert UniPoly((1,)).degree == 0

    def test_trailing_zeros_stripped(self):
        assert UniPoly((1, 2, 0, 0)) == UniPoly((1, 2))

    def test_render(self):
        assert UniPoly((0, -1, 2)).render("b") == "2*b^2 - b"
        assert UniPoly().render() == "0"

    def test_a_number_is_not_a_unipoly(self):
        assert UniPoly((1,)) != 1 and UniPoly() != 0

    def test_no_ring_arithmetic(self):
        """One-variable arithmetic runs on ``Poly``; ``UniPoly`` is only
        the value ``as_unipoly`` returns."""
        removed = {"_coerce", "_plus", "__neg__", "__mul__", "__rmul__", "__add__",
                   "__radd__", "__sub__", "__rsub__", "__truediv__", "__pow__",
                   "compose", "coeff", "is_zero"}
        for cls in UniPoly.__mro__:
            assert not removed & set(vars(cls)), cls
        with pytest.raises(TypeError):
            UniPoly((1, 1)) + 1


fractions = st.fractions(min_value=-50, max_value=50, max_denominator=20)


@given(
    st.lists(fractions, max_size=5),
    st.lists(fractions, max_size=5),
)
def test_agreement_at_enough_points_forces_equality(cs1, cs2):
    # Two polynomials of degree <= d agreeing at d+1 distinct points are
    # identical: the oracle behind every "both sides are polynomials"
    # argument in the package.
    p, q = UniPoly(cs1), UniPoly(cs2)
    d = max(len(cs1), len(cs2))
    if all(p(t) == q(t) for t in range(d + 1)):
        assert p == q
    else:
        assert p != q


@given(st.lists(fractions, max_size=6), st.lists(fractions, max_size=6))
def test_poly_ring_commutativity(cs1, cs2):
    p, q = poly(cs1), poly(cs2)
    assert p * q == q * p
    assert p + q == q + p


@given(st.lists(fractions, max_size=5), st.one_of(st.integers(-20, 20), fractions))
def test_a_scalar_product_matches_the_constant_product(cs, n):
    p = poly(cs)
    assert p * n == p * Poly({(): n})
    assert n * p == p * Poly({(): n})


def test_times_zero_is_the_zero_polynomial():
    for n in (0, Fraction(0)):
        assert ((T + 1) * n).as_unipoly("t").coeffs == ()
        assert (n * (T + 1)) == Poly()


class TestAffine:
    """Polys of degree at most 1, the shape of every obstruction."""

    def test_substitution_collapses(self):
        e = 3 + 2 * Poly.sym("h") - Poly.sym("c13") / 2
        assert e.subs({"h": 1, "c13": 4}) == 3

    def test_partial_substitution(self):
        e = 3 + Poly.sym("h")
        out = e.subs({})
        assert isinstance(out, Poly) and out.coeff({"h": 1}) == 1

    def test_affine_valued_substitution(self):
        e = Poly.sym("x")
        assert e.subs({"x": 12 - Poly.sym("d")}) == 12 - Poly.sym("d")

    def test_render(self):
        assert (14 + Poly.sym("h")).render() == "14 + h"
        assert Poly().render() == "0"
        assert (Poly.sym("h") - 1).render() == "-1 + h"

    def test_zero_coefficients_dropped(self):
        e = Poly.sym("h") - Poly.sym("h")
        assert e.terms == () and e == 0


# --- fast paths against their term-by-term references ----------------------

symbols = st.sampled_from(["x", "y", "z", "d"])
scalars = st.one_of(st.integers(-20, 20), fractions)


def affine(const, terms) -> Poly:
    """const + the sum of c * s over the {symbol s: c} ``terms``."""
    return Poly({(): const, **{((s, 1),): c for s, c in terms.items()}})


affines = st.builds(affine, scalars, st.dictionaries(symbols, scalars, max_size=4))


def subs_reference(e, values):
    """``e`` with ``values`` put in one term at a time: a Fraction when
    every symbol of ``e`` gets a number, a Poly otherwise."""
    out, whole = Fraction(0), True
    for m, c in e.coeffs:
        for s, _ in m:
            v = values.get(s, Poly.sym(s))
            whole = whole and not isinstance(v, Poly)
            c = c * v
        out = out + c
    return out if whole else Poly() + out


@given(affines, st.dictionaries(symbols, st.one_of(scalars, affines), max_size=4))
def test_affine_subs_matches_reference(e, values):
    got, want = e.subs(values), subs_reference(e, values)
    assert got == want
    assert int_when_whole(got) if type(want) is Fraction else type(got) is type(want)


@given(affines, st.dictionaries(symbols, scalars, min_size=4, max_size=4))
def test_affine_subs_collapses_to_a_number(e, values):
    assert set(values) == {"x", "y", "z", "d"}
    got = e.subs(values)
    assert int_when_whole(got) and got == subs_reference(e, values)


def test_affine_subs_conic_discriminant():
    d = Poly.sym("d")
    values = {"c12H": 12 - d, "c1H2": 2, "c2H": d + 6, "H3": 0}
    form = theorems.thm1_closed(theorems.ThreefoldNumerics())
    assert form.subs(values) == subs_reference(form, values)
    assert form.subs(values).coeff({"d": 1}) == 2


@given(st.lists(st.tuples(st.integers(-9, 9), st.booleans()), max_size=6))
def test_constructors_normalize_mixed_int_and_fraction(pairs):
    ints = [v for v, _ in pairs]
    mixed = [Fraction(v) if wrap else v for v, wrap in pairs]

    def same(build):
        a, b = build(ints), build(mixed)
        assert a == b and hash(a) == hash(b)
        return a, b

    a, b = same(UniPoly)
    assert a.coeffs == b.coeffs and all(type(c) is Fraction for c in a.coeffs)

    names = ["x", "y", "z", "d", "h", "k"]
    a, b = same(lambda cs: affine(cs[0] if cs else 0, dict(zip(names, cs[1:]))))
    assert (a.terms, a.den) == (b.terms, b.den)
    assert a.coeffs == b.coeffs and all(type(c) is Fraction for _, c in a.coeffs)

    ambient = PlaneBase2(3, 3)
    chow_monos = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    a, b = same(lambda cs: GradedClass(ambient, dict(zip(chow_monos, cs))))
    assert a.coeffs == b.coeffs and all(type(c) is Fraction for _, c in a.coeffs)


def test_thm1_forms_derived_once_per_process(monkeypatch):
    calls = []
    real = rr.cotangent_twist_e_classes

    def counting():
        calls.append(1)
        return real()

    monkeypatch.setattr(rr, "cotangent_twist_e_classes", counting)
    rr.chi_twisted_cotangent_symbolic.cache_clear()
    for _ in range(2):
        bottcases.report_rows(bottcases.builtin_registry())
    argv = ["thm1", "--h", "0", "--c13", "4", "--c12H", "6", "--c1H2", "6",
            "--c2H", "24", "--H3", "6"]
    assert cli.run(argv, out=io.StringIO(), err=io.StringIO()) == 0
    assert len(calls) == 1


def test_cached_thm1_forms_equal_fresh_derivations():
    cached = rr.chi_twisted_cotangent_symbolic
    assert cached.__wrapped__() == cached()
    # The closed form is not cached: thm1_closed builds it on each call.
    assert theorems.thm1_closed(theorems.ThreefoldNumerics()) == cached()


# --- integer numerators over one denominator, against the Fraction oracle ---


def assert_canonical(p):
    """The stored form is in lowest terms and coeffs is Fraction-typed."""
    assert type(p.den) is int and p.den > 0
    assert all(type(n) is int for n in p.num)
    assert gcd(p.den, *p.num) == 1
    assert p.num == () and p.den == 1 or p.num[-1] != 0
    assert all(type(c) is Fraction for c in p.coeffs)
    assert p.coeffs == tuple(Fraction(n, p.den) for n in p.num)


def same(p, oracle):
    assert_canonical(p)
    assert p.coeffs == oracle.coeffs


coefficients = st.lists(scalars, max_size=5)
nonzero = scalars.filter(lambda c: c != 0)


class TestIntegerNumerators:
    """``UniPoly`` storage, and one-variable ``Poly`` arithmetic read
    through ``as_unipoly``, against the Fraction oracle."""

    @given(coefficients)
    def test_constructor(self, cs):
        same(UniPoly(cs), FractionPoly(cs))
        same(view(poly(cs)), FractionPoly(cs))

    @given(coefficients, coefficients)
    def test_ring_operations(self, cs1, cs2):
        p, q = poly(cs1), poly(cs2)
        r, s = FractionPoly(cs1), FractionPoly(cs2)
        same(view(p + q), r + s)
        same(view(p - q), r - s)
        same(view(-p), -r)
        same(view(p * q), r * s)

    @given(coefficients, scalars)
    def test_sums_with_a_scalar(self, cs, n):
        p, r = poly(cs), FractionPoly(cs)
        same(view(p + n), r + n)
        same(view(n + p), n + r)
        same(view(p - n), r - n)
        same(view(n - p), n - r)

    @given(coefficients, scalars, nonzero)
    def test_scalar_multiple_and_division(self, cs, n, d):
        p, r = poly(cs), FractionPoly(cs)
        same(view(p * n), r * n)
        same(view(n * p), n * r)
        same(view(p / d), r / d)

    @given(coefficients, coefficients)
    def test_compose(self, cs1, cs2):
        same(view(poly(cs1).subs({"t": poly(cs2)})),
             FractionPoly(cs1).compose(FractionPoly(cs2)))

    @given(coefficients, scalars)
    def test_compose_with_a_constant(self, cs, n):
        same(view(poly(cs).subs({"t": n})), FractionPoly(cs).compose(n))

    @given(st.lists(scalars, max_size=3), st.integers(0, 5))
    def test_power(self, cs, n):
        same(view(poly(cs) ** n), FractionPoly(cs) ** n)

    @given(coefficients, st.integers(-30, 30), fractions)
    def test_evaluation(self, cs, k, x):
        p, r = UniPoly(cs), FractionPoly(cs)
        for value in (k, x):
            got = p(value)
            assert int_when_whole(got) and got == r(value)

    @given(coefficients, coefficients)
    def test_eq_and_hash_agree(self, cs1, cs2):
        p, q = UniPoly(cs1), UniPoly(cs2)
        assert (p == q) == (FractionPoly(cs1).coeffs == FractionPoly(cs2).coeffs)
        # the same value reached along another route: scaled numerators
        # with a trailing zero, stripped and cancelled by _store
        again = UniPoly._new([n * 6 for n in p.num] + [0], p.den * 6)
        assert again == p and hash(again) == hash(p)

    @given(coefficients, st.integers(1, 9))
    def test_common_factor_cancelled(self, cs, k):
        # k*num/(k*den) must land on the stored form of p
        p = UniPoly(cs)
        q = UniPoly._new([n * k for n in p.num], p.den * k)
        assert (q.num, q.den) == (p.num, p.den)

    @pytest.mark.parametrize("zero", [0, Fraction(0)])
    def test_division_by_zero_raises(self, zero):
        for p in (Poly(), T + Fraction(1, 3)):
            with pytest.raises(ZeroDivisionError):
                p / zero

    def test_zero_polynomial_is_stored_as_empty_over_one(self):
        for p in (UniPoly(), UniPoly((0, Fraction(0))), UniPoly._new([0, 0], 7),
                  (T / 3 - T / 3).as_unipoly("t"), ((T + 1) * Fraction(0)).as_unipoly("t")):
            assert (p.num, p.den) == ((), 1) and p.coeffs == ()


def old_binom(n, k):
    """``binom`` as it was before its integer path: a Fraction product."""
    if k < 0:
        raise ValueError(f"binomial lower index must be >= 0, got {k}")
    num = Fraction(1)
    for i in range(k):
        num *= n - i
    return num / factorial(k)


class TestBinomAgainstFractionLoop:
    @given(st.integers(-10 ** 6, 10 ** 6), st.integers(0, 12))
    def test_int_upper(self, n, k):
        got = binom(n, k)
        assert type(got) is int
        assert got == old_binom(n, k)

    @given(st.fractions(max_denominator=60).filter(lambda q: abs(q) < 10 ** 4),
           st.integers(0, 8))
    def test_fraction_upper(self, n, k):
        got = binom(n, k)
        assert type(got) is Fraction
        assert got == old_binom(n, k)

    @pytest.mark.parametrize("n", [3, Fraction(1, 2)])
    def test_negative_lower_message(self, n):
        with pytest.raises(ValueError) as err:
            binom(n, -2)
        assert str(err.value) == "binomial lower index must be >= 0, got -2"


class TestCheckDigits:
    """A run of digits past the limit is refused without quoting it; the
    underscores Python allows between digits are not counted."""

    @pytest.mark.parametrize("template", ["N", "-N", "1/N", "N/7", "0.N", "Ne2", "1,N,0"])
    def test_refuses_a_long_run(self, template):
        limit = sys.get_int_max_str_digits()
        text = template.replace("N", "9" * (limit + 1))
        with pytest.raises(OverflowError) as err:
            check_digits(text)
        assert str(err.value) == f"the value has a number of more than {limit} digits"

    def test_parse_rational_refuses_it_too(self):
        limit = sys.get_int_max_str_digits()
        with pytest.raises(OverflowError) as err:
            parse_rational("1/" + "7" * (limit + 1))
        assert "7" not in str(err.value)

    @pytest.mark.parametrize("shape", ["nines", "underscores", "fraction"])
    def test_accepts_runs_at_the_limit(self, shape):
        limit = sys.get_int_max_str_digits()
        text = {"nines": "9" * limit, "underscores": "1_" * (limit - 1) + "1",
                "fraction": "9" * limit + "/" + "9" * limit}[shape]
        assert check_digits(text) is text

    def test_no_bound_when_python_sets_none(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            text = "9" * (limit + 1)
            assert check_digits(text) is text
        finally:
            sys.set_int_max_str_digits(limit)
