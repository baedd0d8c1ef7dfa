"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
``criterion N: PASS`` line when it succeeds.  Every comparison is exact —
all arithmetic is over the rationals, so there is no tolerance anywhere.
"""

import io
from fractions import Fraction
from itertools import product

import pytest

from bottcheck import cli, theorems
from bottcheck.bottcases import (
    FAILS_BY_NEGATIVE_CHI,
    NEEDS_H0_CHECK,
    builtin_registry,
    evaluate_case,
    with_twists,
)
from bottcheck.chern import (
    SurfaceChern,
    sym_power_polys,
    sym_power_splitting_oracle,
    tangent_chern_plane_bundle,
)
from bottcheck.chow import PlaneBase2
from bottcheck.exact import Poly, binom
from bottcheck.rr import f_formula, f_splitting_oracle
from bottcheck.theorems import (
    DivisorCaseInput,
    PlaneBundleInput,
    ThreefoldNumerics,
    thm1_closed,
    thm1_derived,
    thm2_chain,
    thm2_chain_poly,
    thm2_closed,
    thm3_Q,
    thm3_h0_split,
    thm3_hrr_crosscheck,
)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_criterion_1_twisted_cotangent_identity():
    """Derived twisted-cotangent Euler characteristic equals the closed form."""
    assert thm1_derived(ThreefoldNumerics()) == thm1_closed(ThreefoldNumerics())
    form = thm1_closed(ThreefoldNumerics())
    symbols = ("h", "c13", "c12H", "c1H2", "c2H", "H3")
    assert form.coeff(dict.fromkeys(symbols, 0)) == 16
    assert form.coeff({"h": 1}) == 1
    assert form.coeff({"c13": 1}) == Fraction(-1, 2)
    assert form.coeff({"c12H": 1}) == Fraction(-5, 4)
    assert form.coeff({"c1H2": 1}) == Fraction(-5, 4)
    assert form.coeff({"c2H": 1}) == Fraction(3, 4)
    assert form.coeff({"H3": 1}) == Fraction(-1, 2)
    assert {v for m, _ in form.terms for v, _ in m} == set(symbols)
    print("criterion 1: PASS")


def test_criterion_2_specializations():
    """Del-Pezzo-6 and conic-bundle inputs reproduce their closed forms."""
    dp6 = ThreefoldNumerics(c12H=6, c1H2=0, c2H=6, H3=0)
    expected = 13 + Poly.sym("h") - Poly.sym("c13") / 2
    assert thm1_closed(dp6) == expected
    assert thm1_derived(dp6) == expected
    for d in range(1, 8):
        conic = ThreefoldNumerics(c12H=12 - d, c1H2=2, c2H=d + 6, H3=0)
        want = 2 * d + 3 + Poly.sym("h") - Poly.sym("c13") / 2
        assert thm1_closed(conic) == want
        assert thm1_derived(conic) == want
    print("criterion 2: PASS")


def test_criterion_3_divisor_case_chain():
    """The 11-term chain equals 2(sum a + 2k) with zero twist dependence."""
    checked = 0
    for a in product(range(-3, 4), repeat=4):
        if len(set(a)) == 4:
            continue  # hypothesis requires two coincident entries
        for k in range(-3, 4):
            inp = DivisorCaseInput(a, k)
            assert thm2_chain(inp) == thm2_closed(inp) == 2 * (sum(a) + 2 * k)
            checked += 1
    assert checked > 0
    # symbolic twist: the chain polynomial in the free twist a is constant
    for p, q, k in product(range(4), range(4), range(-3, 4)):
        poly = thm2_chain_poly(p, q, k)
        assert poly.degree in (None, 0)
        assert poly(0) == 2 * (p + q + 2 * k)
    print("criterion 3: PASS")


def test_criterion_4_plane_bundle_Q():
    """Q-polynomial special values and the independent HRR cross-check."""
    for c1, c2 in product(range(-3, 4), repeat=2):
        qs = thm3_Q(PlaneBundleInput(c1, c2))
        assert qs.Q1(-1) == 0
        assert qs.Q3(-1) == 0
        assert qs.Q2(-1) == c2 - binom(c1, 2)
    for c1, c2 in product(range(-2, 4), repeat=2):
        inp = PlaneBundleInput(c1, c2)
        q = thm3_Q(inp).Q
        for b in range(-3, 7):  # 10 integer points
            assert thm3_hrr_crosscheck(inp, b) == q(b)
    print("criterion 4: PASS")


def test_criterion_5_oracle_equivalences():
    """Splitting oracles agree with the closed formulas everywhere tested."""
    for p in range(5):
        for q in range(5):
            for x in range(-5, 6):
                for y in range(9):
                    assert f_formula(x, y, p, q) == f_splitting_oracle(x, y, p, q)
    for c1, c2 in product(range(-3, 4), repeat=2):
        sp = sym_power_polys(SurfaceChern(2, c1, c2))
        for b in range(7):
            oracle = sym_power_splitting_oracle(c1, c2, b)
            assert (oracle.c1, oracle.c2) == (sp.C1(b), sp.C2(b))
        amb = PlaneBase2(c1, c2)
        tc1, tc2, tc3 = tangent_chern_plane_bundle(amb)
        assert tc3.degree() == 6
        assert (tc1 * tc2).degree() == 24
    print("criterion 5: PASS")


def test_criterion_6_vanishing_band():
    for y in (-1, -2, -3):
        for x in range(-10, 11):
            for p in range(5):
                for q in range(5):
                    assert f_formula(x, y, p, q) == 0
    print("criterion 6: PASS")


def test_criterion_7_registry_verdicts():
    records = {r.id: r for r in builtin_registry()}

    v = evaluate_case(records["table8-no1"])
    assert v.obstruction == 14 + Poly.sym("h")
    assert v.conclusion == FAILS_BY_NEGATIVE_CHI

    v = evaluate_case(records["table8-no2"])
    assert v.obstruction == 21 + Poly.sym("h")
    assert v.obstruction.coeff({"h": 0}) == 21
    assert v.conclusion == FAILS_BY_NEGATIVE_CHI

    v = evaluate_case(records["table9"])
    assert v.obstruction == 20 + Poly.sym("h")
    assert v.conclusion == FAILS_BY_NEGATIVE_CHI

    twists = (1, 1, 2, 3)  # user-supplied; sum + 2k > 0 for every k below
    for case_id in ("dp8-div-i", "dp8-div-ii", "dp8-div-iii", "dp8-div-iv"):
        rec = records[case_id]
        assert sum(twists) + 2 * rec.k > 0
        v = evaluate_case(with_twists(rec, twists))
        assert v.obstruction == 2 * (sum(twists) + 2 * rec.k)
        assert type(v.obstruction) is int
        assert v.conclusion == FAILS_BY_NEGATIVE_CHI

    v = evaluate_case(records["p1bundle-33"])
    assert v.obstruction == 0
    assert v.conclusion == NEEDS_H0_CHECK
    print("criterion 7: PASS")


def test_criterion_8_h0_split():
    assert thm3_h0_split(0, 3) == 3
    assert thm3_h0_split(0, 0) == 0
    print("criterion 8: PASS")


DOCUMENTED_EXAMPLES = [
    ["thm1", "--h", "0", "--c13", "4", "--c12H", "6", "--c1H2", "6",
     "--c2H", "24", "--H3", "6"],
    ["thm2", "--bundle", "P1: O(0)^2 + O(1)^2", "--k", "0"],
    ["thm3", "--bundle", "P2: rank2(c1=3,c2=3)"],
    ["thm3", "--bundle", "P2: O(0) + O(3)"],
    ["chi-f", "--x", "0", "--y", "-2", "--p", "5", "--q", "7"],
    ["chi-f", "--x", "1", "--y", "1", "--p", "1", "--q", "2", "--oracle"],
    ["bott-report"],
    ["bott-report", "--json"],
    ["chow-eval", "--ring", "line:0,0,1,2", "--expr", "U^4"],
]


def test_criterion_9_cli_determinism(monkeypatch):
    for argv in DOCUMENTED_EXAMPLES:
        first = _run(argv)
        second = _run(argv)
        assert first == second
        assert first[0] == 0

    # a deliberately corrupted closed form must trip the dual-path check
    real = theorems.thm1_closed
    monkeypatch.setattr(theorems, "thm1_closed", lambda n: real(n) + 1)
    code, out, _ = _run(DOCUMENTED_EXAMPLES[0])
    assert code == 1 and "MISMATCH" in out
    monkeypatch.setattr(theorems, "thm1_closed", real)

    monkeypatch.setattr(theorems, "thm2_closed", lambda inp: -1)
    code, out, _ = _run(DOCUMENTED_EXAMPLES[1])
    assert code == 1 and "MISMATCH" in out
    print("criterion 9: PASS")
