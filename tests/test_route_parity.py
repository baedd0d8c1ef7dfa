"""Both front ends run the same route comparison.

Each route is perturbed in ``theorems`` only, one at a time; the matching
``thmN`` command and ``bott-report`` on a case file with every geometry
must both see the disagreement and exit 1.  The routes are looked up in
``theorems`` when they are called, so one patch reaches both.
"""

import io
from pathlib import Path

import pytest

from bottcheck import cli, theorems
from bottcheck.exact import UniPoly
from bottcheck.theorems import QPolys

CASES = Path(__file__).resolve().parent / "golden" / "cases_all_geometries.ini"

COMMANDS = {
    "thm1": ["thm1", "--h", "0", "--c13", "4", "--c12H", "6", "--c1H2", "6",
             "--c2H", "24", "--H3", "6"],
    "thm2": ["thm2", "--bundle", "P1: O(0)^2 + O(1)^2", "--k", "0"],
    "thm3": ["thm3", "--bundle", "P2: rank2(c1=3,c2=3)"],
}


def _plus_one(u: UniPoly) -> UniPoly:
    """u + 1, rebuilt from its coefficients."""
    cs = u.coeffs or (0,)
    return UniPoly((cs[0] + 1, *cs[1:]))


def _shift_q(real):
    def perturbed(inp):
        qs = real(inp)
        return QPolys(qs.Q1, qs.Q2, qs.Q3, _plus_one(qs.Q))
    return perturbed


# route -> (theorem, perturbation of the real route)
PERTURBATIONS = {
    "thm1_closed": ("thm1", lambda real: lambda n: real(n) + 1),
    "thm1_derived": ("thm1", lambda real: lambda n: real(n) + 1),
    "thm2_closed": ("thm2", lambda real: lambda inp: real(inp) + 1),
    "thm2_chain_poly": ("thm2", lambda real: lambda p, q, k: _plus_one(real(p, q, k))),
    "thm3_value": ("thm3", lambda real: lambda inp: real(inp) + 1),
    "thm3_Q": ("thm3", _shift_q),
    "thm3_hrr_form": ("thm3", lambda real: lambda: real() + 1),
}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("route", sorted(PERTURBATIONS))
def test_a_perturbed_route_fails_both_front_ends(monkeypatch, route):
    theorem, perturb = PERTURBATIONS[route]
    assert run(COMMANDS[theorem])[0] == 0
    assert run(["bott-report", "--cases", str(CASES)])[0] == 0

    monkeypatch.setattr(theorems, route, perturb(getattr(theorems, route)))
    code, out, err = run(COMMANDS[theorem])
    assert (code, err) == (1, "")
    assert out.endswith("\nMISMATCH\n")
    code, out, err = run(["bott-report", "--cases", str(CASES)])
    assert (code, out) == (1, "")
    assert err.startswith("MISMATCH: record ") and err.count("\n") == 1


def test_thm3_reports_the_crosscheck_that_failed(monkeypatch):
    real = theorems.thm3_hrr_form
    monkeypatch.setattr(theorems, "thm3_hrr_form", lambda: real() + 1)
    code, out, _ = run(COMMANDS["thm3"])
    assert code == 1
    assert "hrr-crosscheck: MISMATCH\n" in out
    code, _, err = run(["bott-report", "--cases", str(CASES)])
    assert err == (
        "MISMATCH: record 'p1bundle': intrinsic Riemann-Roch and Q(b) "
        "disagree as polynomials in b\n"
    )
