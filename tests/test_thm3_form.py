"""thm3's two routes as polynomial identities in (b, c1, c2).

Both routes are derived once per process (``thm3_hrr_form``,
``thm3_Q_form``) and each bundle substitutes into them.  Criterion 4's
grid and the plane-grid benchmark workload stay as the regression tests;
these check the identity itself, the substituted values against the
per-bundle computations they replaced, and that the derivation runs once.
"""

import io
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from bottcheck import chern, cli, theorems
from bottcheck.chern import (
    SurfaceChern,
    rank3_twist,
    sym_power_classes,
    sym_power_polys,
    tangent_chern_plane_bundle,
    tensor_c1,
    tensor_c2,
)
from bottcheck.chow import H_class, PlaneBase2, U_class
from bottcheck.exact import Poly, UniPoly, binom
from bottcheck.rr import chi_plane, hrr_threefold
from bottcheck.theorems import PlaneBundleInput, QPolys
from fraction_poly import T


def graded_class_hrr(c1: int, c2: int, b: int) -> int:
    """chi(X, Omega_X(-H + bU)) by HRR in the GradedClass ring of one
    bundle, as thm3_hrr_crosscheck computed it before the symbolic form."""
    ambient = PlaneBase2(c1, c2)
    tc1, tc2, tc3 = tangent_chern_plane_bundle(ambient)
    ell = b * U_class(ambient) - H_class(ambient)
    e1, e2, e3 = rank3_twist(-tc1, tc2, -tc3, ell)
    return hrr_threefold(tc1, tc2, e1, e2, e3, 3, lambda x: x.degree())


def per_bundle_Q(c1: int, c2: int) -> QPolys:
    """thm3_Q's per-bundle assembly, as it was before the symbolic form,
    in ``FractionPoly``s in b: the symmetric-power classes at b, composed
    with b - 1, and each bundle on the plane in turn."""
    sp = sym_power_classes(T, c1, c2)
    a1, a2 = sp.A1, sp.A2
    a1m, a2m = a1.compose(T - 1), a2.compose(T - 1)
    c1, c2 = Fraction(c1), Fraction(c2)
    q1 = chi_plane(
        2 * (T + 1),
        tensor_c1(2, T + 1, Fraction(-3), a1),
        tensor_c2(2, T + 1, Fraction(-3), Fraction(3), a1, a2),
    )
    q2 = chi_plane(
        2 * T,
        tensor_c1(2, T, c1, a1m),
        tensor_c2(2, T, c1, c2, a1m, a2m),
    )
    q3 = chi_plane(T + 1, a1, a2)
    return QPolys(q1, q2, q3, q1 + q2 - q3)


def clear_form_caches():
    theorems.thm3_hrr_form.cache_clear()
    theorems.thm3_Q_form.cache_clear()


@pytest.fixture
def fresh_form_caches():
    clear_form_caches()
    yield
    clear_form_caches()


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_hrr_form_equals_the_Q_form():
    hrr, q = theorems.thm3_hrr_form(), theorems.thm3_Q_form()
    assert isinstance(hrr, Poly) and hrr.rule is None
    assert hrr == q.Q
    assert len(hrr.terms) == 8
    assert all(m for m, _ in hrr.terms)  # no constant term
    assert {v for m, _ in hrr.terms for v, _ in m} == {"b", "c1", "c2"}
    assert q.Q == q.Q1 + q.Q2 - q.Q3


def test_forms_are_built_once():
    assert theorems.thm3_hrr_form() is theorems.thm3_hrr_form()
    assert theorems.thm3_Q_form() is theorems.thm3_Q_form()
    assert theorems.thm3_hrr_form.__wrapped__() == theorems.thm3_hrr_form()
    assert theorems.thm3_Q_form.__wrapped__() == theorems.thm3_Q_form()
    assert chern.sym_power_form() is chern.sym_power_form()


def test_Q_at_minus_one_is_the_closed_form():
    q = theorems.thm3_Q_form().Q
    c1, c2 = Poly.sym("c1"), Poly.sym("c2")
    at_minus_one = q.subs({"b": -1})
    assert at_minus_one == c2 - c1 * (c1 - 1) / 2


@settings(max_examples=300, deadline=None)
@given(st.integers(-60, 60), st.integers(-60, 60), st.integers(-10, 10))
def test_hrr_crosscheck_matches_graded_class_route(c1, c2, b):
    got, want = theorems.thm3_hrr_crosscheck(PlaneBundleInput(c1, c2), b), graded_class_hrr(
        c1, c2, b)
    assert type(got) is type(want) is int
    assert got == want


@settings(max_examples=200, deadline=None)
@given(st.integers(-60, 60), st.integers(-60, 60))
def test_thm3_Q_matches_per_bundle_assembly(c1, c2):
    inp = PlaneBundleInput(c1, c2)
    got, want = theorems.thm3_Q(inp), per_bundle_Q(c1, c2)
    for name in ("Q1", "Q2", "Q3", "Q"):
        assert getattr(got, name).coeffs == getattr(want, name).coeffs
    assert theorems.thm3_hrr_poly(inp).coeffs == want.Q.coeffs


@settings(max_examples=100, deadline=None)
@given(st.builds(Fraction, st.integers(-30, 30), st.integers(1, 5)),
       st.builds(Fraction, st.integers(-30, 30), st.integers(1, 5)))
def test_sym_power_polys_take_rational_classes(c1, c2):
    sp = sym_power_polys(SurfaceChern(2, c1, c2))
    for b in range(7):
        oracle = chern.sym_power_splitting_oracle(c1, c2, b)
        assert (sp.C1(b), sp.C2(b)) == (oracle.c1, oracle.c2)


def test_derivation_runs_once(monkeypatch, fresh_form_caches):
    calls = {"hrr": 0, "chi": 0}

    def counting_hrr(*args):
        calls["hrr"] += 1
        return hrr_threefold(*args)

    def counting_chi(*args):
        calls["chi"] += 1
        return chi_plane(*args)

    monkeypatch.setattr(theorems, "hrr_threefold", counting_hrr)
    monkeypatch.setattr(theorems, "chi_plane", counting_chi)
    # Criterion 4's grid.
    for c1, c2 in product(range(-3, 4), repeat=2):
        qs = theorems.thm3_Q(PlaneBundleInput(c1, c2))
        assert qs.Q1(-1) == 0 and qs.Q3(-1) == 0
        assert qs.Q2(-1) == c2 - binom(c1, 2)
    for c1, c2 in product(range(-2, 4), repeat=2):
        inp = PlaneBundleInput(c1, c2)
        q = theorems.thm3_Q(inp).Q
        for b in range(-3, 7):
            assert theorems.thm3_hrr_crosscheck(inp, b) == q(b)
    assert run(["bott-report"])[0] == 0
    assert calls == {"hrr": 1, "chi": 3}


def test_corrupted_hrr_form_is_a_mismatch(monkeypatch, fresh_form_caches):
    def corrupted(*args):
        return hrr_threefold(*args) + Poly.sym("b") * Poly.sym("c2")

    monkeypatch.setattr(theorems, "hrr_threefold", corrupted)
    clear_form_caches()
    assert theorems.thm3_hrr_form() != theorems.thm3_Q_form().Q
    code, out, err = run(["bott-report"])
    assert (code, out) == (1, "")
    assert err == (
        "MISMATCH: record 'p1bundle-33': intrinsic Riemann-Roch and Q(b) "
        "disagree as polynomials in b\n"
    )
    code, out, err = run(["thm3", "--bundle", "P2: rank2(c1=3,c2=3)"])
    assert (code, err) == (1, "")
    assert "hrr-crosscheck: MISMATCH\n" in out
    assert out.endswith("\nMISMATCH\n")


def test_bott_report_compares_the_polynomials(monkeypatch):
    """A Q(b) that is wrong away from b = -1 passed the old Q(-1)-only
    registry check; the polynomial comparison catches it."""
    real = theorems.thm3_Q

    def off_at_b_zero(inp):
        qs = real(inp)
        cs = [*qs.Q.coeffs, 0, 0, 0]
        cs[1] += 1
        cs[2] += 1
        wrong = UniPoly(cs)  # Q + b^2 + b
        assert wrong(-1) == qs.Q(-1)
        return QPolys(qs.Q1, qs.Q2, qs.Q3, wrong)

    monkeypatch.setattr(theorems, "thm3_Q", off_at_b_zero)
    code, out, err = run(["bott-report", "--json"])
    assert (code, out) == (1, "")
    assert err.startswith("MISMATCH: record 'p1bundle-33': ") and err.count("\n") == 1
