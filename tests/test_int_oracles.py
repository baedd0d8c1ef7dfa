"""Fractions made per check on the plane-bundle and registry paths.

A warm ``thm3_hrr_crosscheck`` runs compiled int code and returns an int
without a Fraction; the splitting oracle sums its roots on ints and
makes none; the registry's verdicts read signs from numerators.  The
oracles here are the earlier routes, copied as they were.
"""

import cProfile
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from bottcheck import bottcases, chern
from bottcheck.bottcases import FAILS_BY_NEGATIVE_CHI, INCONCLUSIVE, NEEDS_H0_CHECK
from bottcheck.chern import SurfaceChern, sym_power_polys, sym_power_splitting_oracle
from bottcheck.exact import Poly
from bottcheck.theorems import PlaneBundleInput, check_hodge_number, thm3_hrr_crosscheck, thm3_Q


@pytest.fixture
def count_fractions(monkeypatch):
    """Run a call under the profiler; return its value and the Fractions
    it made, counted as the benchmark's ``exact.fraction_new`` counts."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from worker import fraction_constructions

    def run(call):
        profiler = cProfile.Profile()
        profiler.enable()
        got = call()
        profiler.disable()
        return got, fraction_constructions(profiler)

    return run


def old_splitting_oracle(c1, c2, b):
    c1, c2 = Fraction(c1), Fraction(c2)

    def mul(x, y):
        a, p = x
        c, q = y
        return (a * c - p * q * c2, a * q + p * c + p * q * c1)

    roots = [((b - i) * c1, 2 * i - b) for i in range(b + 1)]
    e1 = (sum(r[0] for r in roots), sum(r[1] for r in roots))
    sq = (0, 0)
    for r in roots:
        s = mul(r, r)
        sq = (sq[0] + s[0], sq[1] + s[1])
    e1sq = mul(e1, e1)
    e2 = ((e1sq[0] - sq[0]) / 2, (e1sq[1] - sq[1]) / 2)
    assert e1[1] == 0 and e2[1] == 0
    return SurfaceChern(b + 1, e1[0], e2[0])


def old_views(p: Poly) -> SimpleNamespace:
    """The views of the removed ``Affine`` that ``old_conclude`` reads, of
    a Poly of degree at most 1: ``const``, ``is_constant()``,
    ``symbols()`` and ``coeff(name)``, as Fractions."""
    terms = {m[0][0] if m else None: c for m, c in p.coeffs}
    const = terms.pop(None, Fraction(0))
    return SimpleNamespace(
        const=const, is_constant=lambda: not terms, symbols=lambda: tuple(terms),
        coeff=lambda name: terms.get(name, Fraction(0)),
    )


def old_conclude(obstruction: Poly) -> str:
    obstruction = old_views(obstruction)
    if obstruction.is_constant():
        if obstruction.const == 0:
            return NEEDS_H0_CHECK
        return FAILS_BY_NEGATIVE_CHI if obstruction.const > 0 else INCONCLUSIVE
    if obstruction.symbols() == ("h",):
        if obstruction.coeff("h") >= 0 and obstruction.const > 0:
            return FAILS_BY_NEGATIVE_CHI
    return INCONCLUSIVE


# --- thm3's HRR crosscheck ----------------------------------------------------


def test_a_warm_hrr_crosscheck_makes_no_fraction(count_fractions):
    bundle = PlaneBundleInput(-7, 12)
    thm3_hrr_crosscheck(bundle, 2)  # compiles the form's int code
    got, made = count_fractions(lambda: thm3_hrr_crosscheck(bundle, 5))
    assert got == thm3_Q(bundle).Q(5)
    assert type(got) is int
    assert made == 0


# --- the splitting oracle -----------------------------------------------------


def test_the_integer_oracle_makes_no_fraction(count_fractions):
    got, made = count_fractions(lambda: sym_power_splitting_oracle(3, -8, 6))
    assert got == old_splitting_oracle(3, -8, 6)
    assert made == 0


_whole = st.integers(-60, 60)
_rational = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 6))


@given(st.one_of(_whole, _whole.map(Fraction), _rational),
       st.one_of(_whole, _whole.map(Fraction), _rational), st.integers(0, 9))
def test_oracle_matches_the_earlier_route(c1, c2, b):
    got, want = sym_power_splitting_oracle(c1, c2, b), old_splitting_oracle(c1, c2, b)
    assert got == want
    integral = Fraction(c1).denominator == Fraction(c2).denominator == 1
    assert {type(got.c1), type(got.c2)} == {int if integral else Fraction}


@given(_whole, _whole, st.integers(0, 9))
def test_oracle_matches_the_closed_form(c1, c2, b):
    polys = sym_power_polys(SurfaceChern(2, c1, c2))
    got = sym_power_splitting_oracle(c1, c2, b)
    assert (got.c1, got.c2) == (polys.C1(b), polys.C2(b))


def test_the_oracle_never_reads_the_form(monkeypatch):
    def refuse():
        raise AssertionError("the oracle read sym_power_form")

    monkeypatch.setattr(chern, "sym_power_form", refuse)
    assert sym_power_splitting_oracle(2, 5, 4).rank == 5


def test_the_oracle_still_refuses_a_negative_power():
    with pytest.raises(ValueError, match="symmetric power needs b >= 0, got -1"):
        sym_power_splitting_oracle(1, 1, -1)


def test_surface_chern_keeps_an_int_or_a_fraction_and_converts_the_rest(
        count_fractions):
    c1 = Fraction(3, 2)
    e, made = count_fractions(lambda: SurfaceChern(2, c1, 4))
    assert e.c1 is c1 and type(e.c2) is int and e.c2 == 4
    assert made == 0
    e = SurfaceChern(2, "7/2", "4")
    assert (e.c1, e.c2) == (Fraction(7, 2), 4) and type(e.c2) is Fraction
    with pytest.raises(ValueError, match="rank must be >= 1, got 0"):
        SurfaceChern(0, 1, 1)


# --- the registry's verdicts --------------------------------------------------


def affine(const, terms) -> Poly:
    """const + the sum of c * s over the {symbol s: c} ``terms``."""
    return Poly({(): const, **{((s, 1),): c for s, c in terms.items()}})


_affines = st.builds(
    affine,
    st.one_of(_whole, _rational),
    st.dictionaries(st.sampled_from(["h", "k", "c13"]), st.one_of(_whole, _rational),
                    max_size=2),
)


@given(_affines)
def test_conclude_reads_the_signs_as_before(obstruction):
    assert bottcases._conclude(obstruction) == old_conclude(obstruction)


@pytest.mark.parametrize("obstruction, want", [
    (affine(0, {}), NEEDS_H0_CHECK),
    (affine(Fraction(1, 3), {}), FAILS_BY_NEGATIVE_CHI),
    (affine(Fraction(-1, 3), {}), INCONCLUSIVE),
    (affine(2, {"h": Fraction(1, 4)}), FAILS_BY_NEGATIVE_CHI),
    (affine(2, {"h": -1}), INCONCLUSIVE),
    (affine(0, {"h": 1}), INCONCLUSIVE),
    (affine(2, {"k": 1}), INCONCLUSIVE),
    (affine(2, {"h": 1, "k": 1}), INCONCLUSIVE),
    # Only the affine shape 'constant + c*h' counts, not a power of h.
    (2 + Poly.sym("h") ** 2, INCONCLUSIVE),
    (2 + Poly.sym("h") * Poly.sym("k"), INCONCLUSIVE),
])
def test_conclude_on_each_branch(obstruction, want):
    assert bottcases._conclude(obstruction) == want


def test_conclude_makes_no_fraction(count_fractions):
    obstruction = affine(Fraction(7, 2), {"h": 3})
    got, made = count_fractions(lambda: bottcases._conclude(obstruction))
    assert got == FAILS_BY_NEGATIVE_CHI
    assert made == 0


def test_an_int_hodge_number_makes_no_fraction(count_fractions):
    _, made = count_fractions(lambda: check_hodge_number(4))
    assert made == 0


@pytest.mark.parametrize("h, text", [
    (-1, "the Hodge number h must be >= 0"),
    (Fraction(-1, 2), "the Hodge number h must be >= 0"),
    (Fraction(1, 2), "the Hodge number h must be an integer"),
])
def test_hodge_number_messages_are_unchanged(h, text):
    with pytest.raises(ValueError) as err:
        check_hodge_number(h)
    assert str(err.value) == text


@pytest.mark.parametrize("h", [0, 3, Fraction(6, 2), True])
def test_whole_hodge_numbers_pass(h):
    check_hodge_number(h)


# --- the coefficients of an affine form -------------------------------------


def test_affine_coeff_of_a_monomial_is_poly_coeff():
    form = affine(3, {"h": 2})
    got = form.coeff({"h": 1})
    assert type(got) is Poly and got == Poly({(): 2})
    assert form.coeff({"h": 0}) == Poly({(): 3})
