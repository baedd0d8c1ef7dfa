"""Route values that are whole numbers are ints.

``thm1_closed``, ``thm2_chain``, ``thm2_closed`` and ``thm3_value``
return an int when the value is whole and a Fraction only when it is
not, each checked here against a reference that does not share its
arithmetic: thm1's closed form in the six symbols substituted through
``Poly.subs``, 2(sum a + 2k) and c2 - c1(c1 - 1)/2 as Fractions.
thm1's closed route runs the paper's formula on the record's fields and
substitutes nothing, so on numbers it reaches no function of the
package that its derived route reaches, and on a symbolic record
neither ``Poly.subs`` nor the compiled code; that is checked by
recording the functions each route calls.  So are thm2's
two routes and thm3's Q(-1) against its closed form, on warm caches;
thm3's Riemann-Roch polynomial and Q(b) share exactly the view of a
cached form as a polynomial in b.
"""

import cProfile
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from bottcheck import exact, rr
from bottcheck.exact import Poly
from bottcheck.theorems import (
    NUMERICS_FIELDS,
    DivisorCaseInput,
    PlaneBundleInput,
    ThreefoldNumerics,
    compare_thm2,
    compare_thm3,
    thm1_closed,
    thm1_derived,
    thm2_chain,
    thm2_closed,
    thm3_hrr_poly,
    thm3_Q,
    thm3_value,
)


#: thm1's closed form in the six symbols, the reference of its closed route.
_FORM = thm1_closed(ThreefoldNumerics())


def int_when_whole(value) -> bool:
    """Whether ``value`` is an int when it is whole and a Fraction when
    it is not."""
    return type(value) is (int if value.denominator == 1 else Fraction)


_numbers = st.integers(-10 ** 6, 10 ** 6) | st.integers(-3, 3) | st.fractions(
    max_denominator=12)


@given(st.tuples(*[_numbers] * 6))
def test_thm1_closed_is_the_form_on_numbers(values):
    n = ThreefoldNumerics(*values)
    got = thm1_closed(n)
    assert got == _FORM.subs(dict(zip(NUMERICS_FIELDS, values)))
    assert int_when_whole(got)


@given(st.tuples(*[st.none() | _numbers] * 6).filter(lambda v: None in v))
def test_thm1_closed_keeps_the_form_for_a_symbolic_field(values):
    n = ThreefoldNumerics(*values)
    got = thm1_closed(n)
    assert type(got) is Poly
    assert got == _FORM.subs(n.substitutions())


def test_thm2_routes_are_ints_on_criterion_3s_grid():
    grid = [a for a in product(range(-3, 4), repeat=4) if len(set(a)) < 4]
    for a, k in product(grid, range(-3, 4)):
        inp = DivisorCaseInput(a, k)
        want = Fraction(2 * (sum(a) + 2 * k))
        chain, closed = thm2_chain(inp), thm2_closed(inp)
        assert chain == closed == want
        assert int_when_whole(chain) and int_when_whole(closed)


def test_thm3_value_is_an_int_on_the_square():
    for c1, c2 in product(range(-60, 61), repeat=2):
        got = thm3_value(PlaneBundleInput(c1, c2))
        assert got == Fraction(2 * c2 - c1 * (c1 - 1), 2)
        assert type(got) is int


def test_a_warm_divisor_grid_check_makes_no_fraction(monkeypatch):
    """Counted as the benchmark's ``exact.fraction_new`` counts."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from worker import fraction_constructions

    def check():
        case = DivisorCaseInput((3, -1, 3, 0), -2)
        return thm2_chain(case), thm2_closed(case)

    check()  # fills the chain cache for this (p, q, k)
    profiler = cProfile.Profile()
    profiler.enable()
    chain, closed = check()
    profiler.disable()
    assert chain == closed == 2 * (5 - 4)
    assert fraction_constructions(profiler) == 0


def _reached(call) -> set:
    """The code objects of the package's Python functions that ``call``
    runs."""
    package = str(Path(exact.__file__).parent)
    codes = set()

    def record(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            codes.add(frame.f_code)

    sys.setprofile(record)
    try:
        call()
    finally:
        sys.setprofile(None)
    return codes


@pytest.mark.parametrize("numerics", [
    ThreefoldNumerics(0, 4, 6, 6, 24, 6),
    ThreefoldNumerics(3, -12, 14, 5, 33, 7),
    ThreefoldNumerics(2, Fraction(1, 2), 6, 6, 24, 6),
    ThreefoldNumerics(None, 4, 6, 6, 24, 6),
])
def test_thm1s_closed_route_shares_no_engine_with_the_derived_one(numerics):
    rr.chi_twisted_cotangent_symbolic.cache_clear()
    try:
        closed = _reached(lambda: thm1_closed(numerics))
        derived = _reached(lambda: thm1_derived(numerics))
    finally:
        rr.chi_twisted_cotangent_symbolic.cache_clear()
    # The derived route compiles its fresh form on every record, whatever
    # the values; the closed route substitutes nothing.
    engines = {Poly.subs.__code__, exact._int_code.__code__}
    assert engines <= derived
    assert not engines & closed
    # A symbolic field makes both routes Poly arithmetic, which they share.
    if None not in (getattr(numerics, name) for name in NUMERICS_FIELDS):
        assert not closed & derived


def _named(codes) -> set:
    """``codes`` without comprehensions and lambdas, which count as the
    function they are written in (and run inline on later Pythons)."""
    return {code for code in codes if not code.co_name.startswith("<")}


@pytest.mark.parametrize("a, k", [((3, -1, 3, 0), -2), ((0, 0, 1, 2), 0),
                                  ((5, 5, 5, 5), 3)])
def test_thm2s_routes_share_no_function(a, k):
    inp = DivisorCaseInput(a, k)
    compare_thm2(inp)  # fills the chain cache, as a warm check finds it
    chain = _reached(lambda: thm2_chain(inp))
    closed = _reached(lambda: thm2_closed(inp))
    assert thm2_chain.__code__ in chain and thm2_closed.__code__ in closed
    assert not chain & closed


@pytest.mark.parametrize("c1, c2", [(3, 3), (-7, 11), (40, -40), (0, 0)])
def test_thm3s_q_at_minus_one_shares_no_function_with_the_closed_form(c1, c2):
    inp = PlaneBundleInput(c1, c2)
    compare_thm3(inp)  # compiles the forms' int code
    q = _reached(lambda: thm3_Q(inp).Q(-1))
    closed = _reached(lambda: thm3_value(inp))
    assert exact.UniPoly.__call__.__code__ in q and thm3_value.__code__ in closed
    assert not q & closed


@pytest.mark.parametrize("c1, c2", [(3, 3), (-7, 11), (40, -40), (0, 0)])
def test_thm3s_hrr_and_q_routes_share_only_the_unipoly_view(c1, c2):
    """Both polynomials in b are views of cached forms at the bundle's c1
    and c2, so they share the view and nothing else; a new shared function
    is a new blind spot of the comparison, and fails here."""
    inp = PlaneBundleInput(c1, c2)
    compare_thm3(inp)
    hrr = _reached(lambda: thm3_hrr_poly(inp))
    q = _reached(lambda: thm3_Q(inp).Q)
    assert _named(hrr & q) == {exact.Poly.as_unipoly.__code__, exact.Poly._run.__code__,
                               exact.UniPoly._new.__func__.__code__,
                               exact.UniPoly._store.__code__}
