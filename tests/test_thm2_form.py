"""thm2's pushforward chain as one affine identity in (a, p, q, k).

The chain is derived once per process (``thm2_chain_form``) and each
normalised key substitutes into it (``thm2_chain_poly``).  The grid tests
in test_theorems.py and criterion 3 stay as the regression tests; these
check the identity itself, the per-key polynomial against the per-key
derivation it replaced, and that the derivation runs once.
"""

import io
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from bottcheck import cli, theorems
from bottcheck.exact import Poly
from bottcheck.rr import f_formula
from fraction_poly import FractionPoly, T


def per_key_chain(p: int, q: int, k: int) -> FractionPoly:
    """The chain derived in a ``FractionPoly`` for one (p, q, k), with a
    symbolic twist a, as thm2_chain_poly did before the affine form."""
    a = T

    def f(x, y):
        return f_formula(x, y, p, q)

    return (
        2 * f(-a - 1, -1)
        + 2 * f(-a, -2)
        - 2 * f(-a, -1)
        + f(-a + p, -2)
        + f(-a + q, -2)
        - 2 * f(-a - k - 1, -3)
        - 2 * f(-a - k, -4)
        + f(-a - k, -3)
        - f(-a - k + p, -4)
        - f(-a - k + q, -4)
        + f(-a - 2 * k, -5)
    )


def clear_chain_caches():
    theorems.thm2_chain_form.cache_clear()
    theorems.thm2_chain_poly.cache_clear()


@pytest.fixture
def fresh_chain_caches():
    clear_chain_caches()
    yield
    clear_chain_caches()


def divisor_grid():
    """Criterion 3's grid: twists in [-3, 3]^4 with two equal, k in [-3, 3]."""
    for a in product(range(-3, 4), repeat=4):
        if len(set(a)) < 4:
            for k in range(-3, 4):
                yield theorems.DivisorCaseInput(a, k)


def test_chain_form_is_the_closed_identity():
    p, q, k = (Poly.sym(s) for s in "pqk")
    form = theorems.thm2_chain_form()
    assert form == 2 * p + 2 * q + 4 * k
    assert form.coeff({"a": 1}) == 0 and form.coeff(dict.fromkeys("apqk", 0)) == 0
    assert form.render() == "4*k + 2*p + 2*q"


def test_chain_form_is_built_once():
    assert theorems.thm2_chain_form() is theorems.thm2_chain_form()
    assert theorems.thm2_chain_form.__wrapped__() == theorems.thm2_chain_form()


@settings(max_examples=300, deadline=None)
@given(st.integers(-60, 60), st.integers(-60, 60), st.integers(-20, 20))
def test_chain_poly_matches_per_key_derivation(p, q, k):
    got, want = theorems.thm2_chain_poly(p, q, k), per_key_chain(p, q, k)
    assert got.coeffs == want.coeffs
    assert got(0) == want(0) == 2 * (p + q + 2 * k)


def test_f_formula_runs_once_per_chain_term(monkeypatch, fresh_chain_caches):
    calls = []

    def counting(*args):
        calls.append(args)
        return f_formula(*args)

    monkeypatch.setattr(theorems, "f_formula", counting)
    for inp in divisor_grid():
        assert theorems.thm2_chain(inp) == theorems.thm2_closed(inp)
    out, err = io.StringIO(), io.StringIO()
    assert cli.run(["bott-report"], out=out, err=err) == 0
    assert len(calls) == 11


def test_twist_dependent_chain_is_a_mismatch(monkeypatch, fresh_chain_caches):
    def with_twist(x, y, p, q):
        return f_formula(x, y, p, q) + (x if y == -2 else 0)

    monkeypatch.setattr(theorems, "f_formula", with_twist)
    clear_chain_caches()
    assert theorems.thm2_chain_form().coeff({"a": 1}) != 0
    with pytest.raises(theorems.DualPathMismatch, match="depends on the twist"):
        theorems.thm2_chain(theorems.DivisorCaseInput((0, 0, 1, 1), 0))
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(["thm2", "--bundle", "P1: O(0)^2 + O(1)^2", "--k", "0"],
                   out=out, err=err)
    assert (code, out.getvalue()) == (1, "")
    assert err.getvalue().startswith("MISMATCH: ") and err.getvalue().count("\n") == 1
