import io
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bottcheck import bottcases, cli, rr, theorems
from bottcheck.chern import SymClass
from bottcheck.chow import GradedClass, PlaneBase2
from bottcheck.exact import Affine, T, UniPoly, binom, binom_of_poly, binom_poly


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


class TestBinomPoly:
    def test_shift3_k3_at_zero(self):
        assert binom_poly(3, 3)(0) == 1

    def test_shift3_k4(self):
        p = binom_poly(3, 4)
        assert p(-1) == 0  # binom(2, 4)
        assert p(-4) == 1  # binom(-1, 4)

    def test_identity(self):
        assert binom_poly(0, 1) == T

    @pytest.mark.parametrize("shift", [-2, 0, 1, 3])
    @pytest.mark.parametrize("k", [0, 1, 2, 4])
    def test_matches_binom_on_integers(self, shift, k):
        p = binom_poly(shift, k)
        for t in range(-10, 11):
            assert p(t) == binom(t + shift, k)

    def test_poly_upper_argument(self):
        # binom(2t + 1, 2) at t = 3 is binom(7, 2)
        p = binom_of_poly(2 * T + 1, 2)
        assert p(3) == binom(7, 2)


class TestUniPoly:
    def test_product(self):
        assert (T + 1) * (T - 1) == T * T - 1

    def test_evaluate(self):
        p = T * T - 1
        assert p(Fraction(3, 2)) == Fraction(5, 4)

    def test_compose(self):
        assert (T * T).compose(T + 1) == T * T + 2 * T + 1

    def test_zero_degree_marker(self):
        assert UniPoly().degree is None
        assert UniPoly((0, 0)).degree is None
        assert UniPoly((1,)).degree == 0

    def test_trailing_zeros_stripped(self):
        assert UniPoly((1, 2, 0, 0)) == UniPoly((1, 2))

    def test_render(self):
        assert (2 * T * T - T).render("b") == "2*b^2 - b"
        assert UniPoly().render() == "0"


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
    p, q = UniPoly(cs1), UniPoly(cs2)
    assert p * q == q * p
    assert p + q == q + p


class TestAffine:
    def test_substitution_collapses(self):
        e = Affine(3) + 2 * Affine.sym("h") - Affine.sym("c13") / 2
        assert e.subs({"h": 1, "c13": 4}) == 3

    def test_partial_substitution(self):
        e = Affine(3) + Affine.sym("h")
        out = e.subs({})
        assert isinstance(out, Affine) and out.coeff("h") == 1

    def test_affine_valued_substitution(self):
        e = Affine.sym("x")
        assert e.subs({"x": Affine(12) - Affine.sym("d")}) == Affine(12) - Affine.sym("d")

    def test_render(self):
        assert (Affine(14) + Affine.sym("h")).render() == "14 + h"
        assert Affine(0).render() == "0"
        assert (Affine.sym("h") - 1).render() == "-1 + h"

    def test_zero_coefficients_dropped(self):
        e = Affine.sym("h") - Affine.sym("h")
        assert e.is_constant() and e == 0


# --- fast paths against their term-by-term references ----------------------

symbols = st.sampled_from(["x", "y", "z", "d"])
scalars = st.one_of(st.integers(-20, 20), fractions)
affines = st.builds(Affine, scalars, st.dictionaries(symbols, scalars, max_size=4))


def subs_reference(e, values):
    out = Affine(e.const)
    for s, c in e.terms:
        v = values.get(s, Affine.sym(s))
        out = out + c * (v if isinstance(v, Affine) else Affine(v))
    return out.const if out.is_constant() else out


@given(affines, st.dictionaries(symbols, st.one_of(scalars, affines), max_size=4))
def test_affine_subs_matches_reference(e, values):
    got, want = e.subs(values), subs_reference(e, values)
    assert type(got) is type(want) and got == want


@given(affines, st.dictionaries(symbols, scalars, min_size=4, max_size=4))
def test_affine_subs_collapses_to_fraction(e, values):
    assert set(values) == {"x", "y", "z", "d"}
    got = e.subs(values)
    assert type(got) is Fraction and got == subs_reference(e, values)


def test_affine_subs_conic_discriminant():
    d = Affine.sym("d")
    values = {"c12H": 12 - d, "c1H2": 2, "c2H": d + 6, "H3": 0}
    form = theorems.thm1_closed_form()
    assert form.subs(values) == subs_reference(form, values)
    assert form.subs(values).coeff("d") == 2


@given(st.lists(fractions, max_size=5), scalars)
def test_unipoly_scalar_product_matches_poly_product(cs, n):
    p = UniPoly(cs)
    assert p * n == p * UniPoly((n,))
    assert n * p == p * UniPoly((n,))


def test_unipoly_times_zero_is_zero_polynomial():
    for n in (0, Fraction(0)):
        assert ((T + 1) * n).coeffs == ()
        assert (n * (T + 1)).is_zero()


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
    a, b = same(lambda cs: Affine(cs[0] if cs else 0, dict(zip(names, cs[1:]))))
    assert (a.const, a.terms) == (b.const, b.terms)
    assert type(a.const) is Fraction and all(type(c) is Fraction for _, c in a.terms)

    monos = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 0, 0),
             (0, 0, 0, 1)]
    a, b = same(lambda cs: SymClass(dict(zip(monos, cs))))
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
    assert theorems.thm1_closed_form.__wrapped__() == theorems.thm1_closed_form()
