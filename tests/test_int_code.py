"""Substitution through compiled code.

``Poly.subs`` and ``Poly.as_unipoly`` run a form's compiled code on
every call: in int arithmetic when every value is an int and every
variable gets one, and on the values' own arithmetic otherwise (a
Fraction, a polynomial, or a variable left free as its own symbol).
Both are checked against a term-by-term Fraction reference, the other
calls against the results and errors they gave before they ran the
compiled code, and the generated source against the package's no-float
scan.
"""

import ast
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bottcheck import chern, exact, rr, theorems
from bottcheck.chow import PLANE_RULE
from bottcheck.exact import Poly, UniPoly
from test_no_floats import inexact_nodes
from test_int_values import int_when_whole

VARS = ("b", "c1", "c2", "x")

# A coefficient of 4,400 digits, past the 4,300 that Python prints.
HUGE = 7 * 10 ** 4400 + 3


def ref_subs(p: Poly, values) -> Fraction:
    """The value of ``p`` at ``values``, one Fraction term at a time."""
    total = Fraction(0)
    for m, c in p.coeffs:
        for v, e in m:
            c *= Fraction(values[v]) ** e
        total += c
    return total


def ref_unipoly(p: Poly, var: str, values) -> UniPoly:
    """``p`` at ``values`` as a UniPoly in ``var``, one term at a time."""
    out: dict = {}
    for m, c in p.coeffs:
        power = 0
        for v, e in m:
            if v == var:
                power = e
            else:
                c *= Fraction(values[v]) ** e
        out[power] = out.get(power, Fraction(0)) + c
    return UniPoly([out.get(i, 0) for i in range(max(out, default=-1) + 1)])


@pytest.fixture
def builds(monkeypatch):
    """The (variables, kept) of each int function compiled from now on."""
    made = []
    real = exact._int_code

    def counting(terms, variables, kept=None):
        made.append((variables, kept))
        return real(terms, variables, kept)

    monkeypatch.setattr(exact, "_int_code", counting)
    return made


# --- random rule-free polynomials -----------------------------------------

_numerators = st.one_of(
    st.integers(-50, 50),
    st.integers(-10 ** 40, 10 ** 40),
    st.just(HUGE),
    st.just(-HUGE),
)
_coefficients = st.builds(Fraction, _numerators, st.sampled_from([1, 1, 2, 3, 12]))
_monomials = st.dictionaries(st.sampled_from(VARS), st.integers(1, 4), max_size=3).map(
    lambda d: tuple(sorted(d.items())))
_polys = st.dictionaries(_monomials, _coefficients, max_size=6).map(Poly)
_values = st.one_of(
    st.integers(-5, 5),
    st.just(0),
    st.integers(-10 ** 30, 10 ** 30),
    st.integers(-9, 9).map(Fraction),  # whole, as a Fraction
)
_assignments = st.fixed_dictionaries({v: _values for v in VARS})


@settings(max_examples=150, deadline=None)
@given(_polys, _assignments)
def test_subs_matches_the_reference(p, values):
    got = p.subs(values)
    assert int_when_whole(got)
    assert got == ref_subs(p, values)


@settings(max_examples=150, deadline=None)
@given(_polys, st.sampled_from(VARS), _assignments)
def test_as_unipoly_matches_the_reference(p, var, values):
    del values[var]
    got = p.as_unipoly(var, values)
    assert type(got) is UniPoly
    assert got == ref_unipoly(p, var, values)


@settings(max_examples=60, deadline=None)
@given(_polys, _assignments)
def test_compiled_and_loop_agree(p, values):
    """The compiled code at x/2, a rational value, against the code of
    the form with the polynomial x/2 put in for x, at x: one code run on
    Fractions, on Polys and on the new form's values."""
    scaled = p.subs({"x": Poly.sym("x") / 2})
    half = dict(values, x=Fraction(values["x"], 2))
    want = scaled if isinstance(scaled, (int, Fraction)) else scaled.subs(values)
    assert p.subs(half) == want


def test_a_huge_coefficient_runs_as_an_int():
    p = Poly({(("b", 2),): Fraction(HUGE, 3), (("c1", 1),): -HUGE, (): 1})
    assert p.subs({"b": 2, "c1": 5}) == Fraction(4 * HUGE, 3) - 5 * HUGE + 1
    assert p.as_unipoly("b", {"c1": -1}) == UniPoly((HUGE + 1, 0, Fraction(HUGE, 3)))


@pytest.mark.parametrize("p, want", [
    (Poly(), Fraction(0)),
    (Poly({(): Fraction(7, 3)}), Fraction(7, 3)),
    (Poly({(): -5}), Fraction(-5)),
])
def test_forms_without_variables(p, want):
    got = p.subs({"b": 4})
    assert int_when_whole(got) and got == want
    assert p.as_unipoly("b") == UniPoly((want,))


def test_affine_subs_at_whole_numbers_is_a_fraction():
    form = Fraction(1, 2) + 3 * Poly.sym("h") - Fraction(5, 4) * Poly.sym("d")
    got = form.subs({"h": 2, "d": Fraction(8)})
    assert type(got) is Fraction and got == Fraction(1, 2) + 6 - 10


def test_as_unipoly_fills_powers_no_term_has():
    b, c1 = Poly.sym("b"), Poly.sym("c1")
    p = c1 * b ** 3 + b
    assert p.as_unipoly("b", {"c1": 4}) == UniPoly((0, 1, 0, 4))
    assert p.as_unipoly("c1", {"b": 2}) == UniPoly((2, 8))


# --- what compiles, and how often -------------------------------------------


def test_unused_names_are_ignored(builds):
    p = 3 * Poly.sym("b") ** 2 - Poly.sym("c1")
    assert p.subs({"b": 2, "c1": 5, "zz": 9}) == 7
    assert p.as_unipoly("b", {"c1": 5, "zz": Fraction(9)}) == UniPoly((-5, 0, 3))
    assert builds == [(("b", "c1"), None), (("c1",), "b")]


def test_a_second_call_builds_no_function(builds):
    p = Poly.sym("b") * Poly.sym("c2") + Fraction(1, 2)
    for _ in range(3):
        assert p.subs({"b": 1, "c2": 3}) == Fraction(7, 2)
        assert p.as_unipoly("b", {"c2": 3}) == UniPoly((Fraction(1, 2), 3))
        assert p.as_unipoly("c2", {"b": -1}) == UniPoly((Fraction(1, 2), -1))
    assert builds == [(("b", "c2"), None), (("c2",), "b"), (("b",), "c2")]


def test_the_memo_does_not_enter_equality_or_hash():
    p, q = Poly.sym("b") + 1, Poly.sym("b") + 1
    p.subs({"b": 1})
    assert p == q and hash(p) == hash(q)


# --- every other call runs the same code ------------------------------------
#
# Each test builds its own form, so that its builds are counted from none.


def _p() -> Poly:
    return Poly({(("x", 2),): 3, (("x", 1), ("y", 1)): Fraction(1, 2), (): -1})


@pytest.mark.parametrize("values, want", [
    ({"x": Fraction(1, 2), "y": 3}, Fraction(3, 4) + Fraction(3, 4) - 1),
    ({"x": 1, "y": Fraction(-2, 3)}, 3 - Fraction(1, 3) - 1),
    ({"x": "3", "y": 1}, 27 + Fraction(3, 2) - 1),  # converted by Fraction
    ({"x": True, "y": 2}, 3 + 1 - 1),
    ({"x": 1, "y": 2, "z": Fraction(1, 7)}, 3 + 1 - 1),
])
def test_other_numbers_run_the_same_code(builds, values, want):
    got = _p().subs(values)
    assert int_when_whole(got) and got == want
    assert builds == [(("x", "y"), None)]


def test_polynomial_values_and_free_variables_run_the_same_code(builds):
    t, p = Poly.sym("t"), _p()
    assert p.subs({"x": t, "y": 2}) == 3 * t ** 2 + t - 1
    assert p.subs({"x": 2}) == 11 + Poly.sym("y")
    assert type(p.subs({"x": 2})) is Poly
    assert p.subs({"y": 0}) == 3 * Poly.sym("x") ** 2 - 1
    assert (1 + 2 * Poly.sym("h")).subs({"h": Poly.sym("k")}) == 1 + 2 * Poly.sym("k")
    assert p.as_unipoly("x", {"y": Fraction(2, 3)}) == UniPoly((-1, Fraction(1, 3), 3))
    assert builds == [(("x", "y"), None), (("h",), None), (("y",), "x")]


@pytest.mark.parametrize("bad", ["abc", None, object()])
def test_a_value_that_is_not_a_number_raises_as_fraction_does(builds, bad):
    try:
        Fraction(bad)
    except (TypeError, ValueError) as exc:
        kind, text = type(exc), str(exc)
    p = _p()
    for call in (lambda: p.subs({"x": bad, "y": 1}),
                 lambda: p.subs({"x": 1, "y": 1, "unused": bad}),
                 lambda: p.as_unipoly("x", {"y": bad})):
        with pytest.raises(kind) as err:
            call()
        assert str(err.value) == text
    assert builds == []


def test_a_form_with_a_rule_raises(builds):
    H = Poly.sym("H", PLANE_RULE)
    with pytest.raises(ValueError, match="cannot substitute into a quotient ring"):
        H.subs({"H": 1})
    with pytest.raises(ValueError, match="is not a UniPoly"):
        H.as_unipoly("H")
    assert builds == []


def test_as_unipoly_errors_keep_their_text(builds):
    p = _p()
    with pytest.raises(ValueError) as err:
        p.as_unipoly("x", {"x": 1, "y": 2})
    assert str(err.value) == "x is the variable of the UniPoly; it takes no value"
    with pytest.raises(ValueError) as err:
        p.as_unipoly("x")
    assert str(err.value) == f"{p.render()} is not a polynomial in x alone"
    with pytest.raises(ValueError) as err:
        p.as_unipoly("x", {"z": 4})
    assert "is not a polynomial in x alone" in str(err.value)
    with pytest.raises(ValueError) as err:
        p.as_unipoly("x", {"z": Fraction(1, 2)})
    assert str(err.value) == f"{p.render()} is not a polynomial in x alone"
    assert builds == [(("y",), "x")]


# --- the generated source ---------------------------------------------------


def _cached_form_calls():
    """One whole-number call into each cached form: thm1's two forms,
    thm2's chain, thm3's Q and HRR forms, and the symmetric-power form.
    thm1's closed route evaluates the paper's formula and substitutes
    nothing, so its form, the formula in the six symbols, is substituted
    directly."""
    numerics = theorems.ThreefoldNumerics(2, 4, 6, 6, 24, 6)
    theorems.thm1_closed(theorems.ThreefoldNumerics()).subs(numerics.substitutions())
    theorems.thm1_derived(numerics)
    theorems.thm2_chain_poly(3, -1, 2)
    theorems.compare_thm3(theorems.PlaneBundleInput(1, 5))
    theorems.thm3_hrr_crosscheck(theorems.PlaneBundleInput(1, 5), 2)
    chern.sym_power_polys(chern.SurfaceChern(2, 3, 4))


def _clear_form_caches():
    for cached in (rr.chi_twisted_cotangent_symbolic,
                   theorems.thm2_chain_form, theorems.thm2_chain_poly,
                   theorems.thm3_Q_form, theorems.thm3_hrr_form, chern.sym_power_form):
        cached.cache_clear()


def test_generated_source_is_exact_and_names_only_its_parameters(monkeypatch):
    sources = []
    real = exact._int_code

    def recording(terms, variables, kept=None):
        sources.append((exact._int_source(terms, variables, kept), len(variables)))
        return real(terms, variables, kept)

    monkeypatch.setattr(exact, "_int_code", recording)
    _clear_form_caches()
    try:
        _cached_form_calls()
    finally:
        _clear_form_caches()
    # thm1 2, thm2 1, the four Q forms and HRR's, HRR's subs, 4 symmetric
    # powers
    assert len(sources) >= 13
    for source, arity in sources:
        assert inexact_nodes(source) == []
        names = {node.id for node in ast.walk(ast.parse(source))
                 if isinstance(node, ast.Name)}
        assert names <= {"c", *(f"x{i}" for i in range(arity))}
        assert "c" in names
        numbers = [node.value for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Constant)]
        assert all(type(n) is int for n in numbers)


def test_source_holds_no_coefficient_or_name():
    p = Poly({(("alpha", 2), ("beta", 1)): 123457, (("beta", 3),): Fraction(-98765, 11)})
    for kept in (None, "beta"):
        variables = ("alpha",) if kept else ("alpha", "beta")
        source = exact._int_source(p._terms, variables, kept)
        assert not re.search(r"alpha|beta|123457|98765|\b11\b", source)


def test_a_form_of_many_terms_compiles():
    """The sums are parenthesised as balanced trees, so a long one stays
    inside the compiler's nesting limits."""
    p = sum((Poly.sym(f"v{i}") * (i + 1) for i in range(3000)), Poly())
    values = {f"v{i}": 1 for i in range(3000)}
    assert p.subs(values) == 3000 * 3001 // 2
