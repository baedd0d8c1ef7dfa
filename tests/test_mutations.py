"""A table of mutations, each with the detectors that must catch it.

Each entry perturbs one piece of the package by monkeypatch, with every
cached form cleared before and after, and names its detectors:

* ``route``: a CLI command whose route comparison must fail, exit 1
  with ``MISMATCH`` as its last line;
* ``golden``: a CLI command whose transcript must differ from the one
  recorded in ``golden/cli_transcripts.json``; ``{golden}`` in its
  arguments stands for the ``golden`` directory, as it does there.

Every detector is run on the unperturbed package first and must pass
there, so an entry cannot be caught by a detector that always fires.
"""

import json
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from bottcheck import bottcases, chern, chow, exact, rr, theorems
from bottcheck.exact import Poly, QuotientRule
from test_cli_golden import transcript as run

TRANSCRIPTS = Path(__file__).resolve().parent / "golden" / "cli_transcripts.json"
GOLDEN = {tuple(t["argv"]): t for t in json.loads(TRANSCRIPTS.read_text("utf-8"))}

H, U, S1, C1, C2 = (Poly.sym(s) for s in ("H", "U", "s1", "c1", "c2"))
THM1 = ["thm1", "--h", "0", "--c13", "4", "--c12H", "6", "--c1H2", "6", "--c2H", "24",
        "--H3", "6"]
THM1_RATIONAL = ["thm1", "--h", "2", "--c13", "1/2", "--c12H", "6", "--c1H2", "6",
                 "--c2H", "24", "--H3", "6"]
THM1_SYMBOLIC_H = ["thm1", "--symbolic-h", "--c13", "4", "--c12H", "6", "--c1H2", "6",
                   "--c2H", "24", "--H3", "6"]


def _int_code_one_more():
    """``exact._int_code``, but its whole-number sum (``kept`` None) is one
    more."""
    real = exact._int_code

    def perturbed(terms, variables, kept=None):
        code = real(terms, variables, kept)
        if kept is not None:
            return code
        return lambda *values: code(*values) + 1

    return perturbed


def _scalar_denominator_dropped():
    """``exact._Sparse._scaled``, the scalar path of ``x * n``, ``n * x``
    and ``x / n``, but with the denominator of the scalar dropped."""
    real = exact._Sparse._scaled
    return lambda self, p, q: real(self, p, 1)


def _twists_q_one_more():
    """``theorems.check_twists``, but with q of the normal form one more."""
    real = theorems.check_twists

    def perturbed(a):
        t, p, q = real(a)
        return t, p, q + 1

    return perturbed


def _subs_den_times_too_much_off_ints():
    """``exact.Poly.subs``, but ``den`` times its value when the values
    that its compiled code runs at are not all ints: a value that is not
    an int, or a variable of the form left free as its own symbol."""
    real = exact.Poly.subs

    def perturbed(self, values):
        out = real(self, values)
        free = {v for m, _ in self.terms for v, _ in m} - values.keys()
        if free or any(type(x) is not int for x in values.values()):
            return out * self.den
        return out

    return perturbed


def _substitutions_h_one_more():
    """``theorems.ThreefoldNumerics.substitutions``, but with h one more."""
    real = theorems.ThreefoldNumerics.substitutions

    def perturbed(self):
        out = dict(real(self))
        if "h" in out:
            out["h"] += 1
        return out

    return perturbed


def _chain_term_one_more():
    """``theorems.f_formula``, but one more at y = -5, the last term of
    thm2's chain."""
    real = theorems.f_formula
    return lambda x, y, p, q: real(x, y, p, q) + (1 if y == -5 else 0)


def _unipoly_one_more_at_a_negative_int():
    """``exact.UniPoly.__call__``, but one more at a negative int."""
    real = exact.UniPoly.__call__

    def perturbed(self, value):
        out = real(self, value)
        return out + 1 if type(value) is int and value < 0 else out

    return perturbed


def _fixed_numerics_override_the_record():
    """``bottcases._numerics_of``, but None for every field that the
    record's geometry fixes, so the geometry's value wins over the
    record's own."""
    real = bottcases._numerics_of

    def perturbed(record):
        fixed = bottcases.GEOMETRY_TABLE[record.geometry].fixed
        return tuple(None if f in fixed else v
                     for f, v in zip(theorems.NUMERICS_FIELDS, real(record)))

    return perturbed


def _unipoly_plus_b_plus_one():
    """``exact.Poly.as_unipoly``, but with b + 1 added to every view in b."""
    real = exact.Poly.as_unipoly
    b_plus_one = Poly.sym("b") + 1

    def perturbed(self, var, values=None):
        return real(self + b_plus_one if var == "b" else self, var, values)

    return perturbed


class Mutation(NamedTuple):
    module: object
    name: str
    value: Callable[[], object]  # the perturbed object, built when applied
    route: tuple = ()  # argv lists whose route comparison must fail
    golden: tuple = ()  # argv lists whose recorded transcript must change


MUTATIONS = {
    "PLANE_RULE with c2's sign flipped": Mutation(
        chow, "PLANE_RULE",
        lambda: QuotientRule(((H ** 3, 0), (U ** 2, C1 * H * U + C2 * H * H))),
        route=(["thm3", "--bundle", "P2: O(1) + O(2)"],),
        golden=(["chow-eval", "--ring", "plane:1,2", "--expr",
                 "(H + U)^3 - 1/2*H*U + 3"],),
    ),
    "LINE_RULE with s1's sign flipped": Mutation(
        chow, "LINE_RULE",
        lambda: QuotientRule(((H ** 2, 0), (U ** 4, -S1 * H * U ** 3))),
        golden=(["chow-eval", "--ring", "line:0,0,1,2", "--expr", "(H+U)^4"],),
    ),
    "thm1's degree table with deg(c1*c2) = 25": Mutation(
        chern, "_DEGREES",
        lambda: {**chern._DEGREES, (C1 * C2).terms[0][0]: 25},
        route=(THM1,),
        golden=(THM1,),
    ),
    # thm1's derived route substitutes through the compiled int code and
    # gives 57/4 (a numerator one more over 4); its closed route
    # evaluates the paper's formula and gives 14.
    "whole-number Poly.subs one more": Mutation(
        exact, "_int_code", _int_code_one_more,
        route=(THM1,),
        golden=(THM1,),
    ),
    # thm1's derived form is built with scalar multiples and its closed
    # route evaluates the paper's formula on numbers, so the routes
    # disagree; so do thm3's, whose Q-polynomials divide by 2 and 24.
    "scalar multiple with the denominator dropped": Mutation(
        exact._Sparse, "_scaled", _scalar_denominator_dropped,
        route=(THM1, ["thm3", "--bundle", "P2: rank2(c1=3,c2=3)"]),
        golden=(THM1, ["chow-eval", "--ring", "plane:1,2", "--expr",
                       "(H + U)^3 - 1/2*H*U + 3"]),
    ),
    "thm2's normal form with q one more": Mutation(
        theorems, "check_twists", _twists_q_one_more,
        route=(["thm2", "--bundle", "P1: O(0)^2 + O(1)^2", "--k", "0"],),
        golden=(["thm2", "--bundle", "P1: O(0)^2 + O(1) + O(2)", "--k", "0"],),
    ),
    # thm1's derived route substitutes; its closed route evaluates the
    # paper's formula on the fields and never does.  So on a rational
    # record the derived route gives 71 for 71/4, and with h free it gives
    # 56 + 4*h for 14 + h.
    "Poly.subs at values that are not all ints": Mutation(
        exact.Poly, "subs", _subs_den_times_too_much_off_ints,
        route=(THM1_RATIONAL, THM1_SYMBOLIC_H),
        golden=(["thm1", "--h", "2", "--c13", "1/2", "--c12H", "-3/4", "--c1H2", "5/3",
                 "--c2H", "24", "--H3", "7/2"],
                THM1_SYMBOLIC_H),
    ),
    # thm1's derived route substitutes this map and gives 15; its closed
    # route reads the record's fields and gives 14.
    "thm1's substitution map with h one more": Mutation(
        theorems.ThreefoldNumerics, "substitutions", _substitutions_h_one_more,
        route=(THM1,),
        golden=(THM1,),
    ),
    "a wrong chain term": Mutation(
        theorems, "f_formula", _chain_term_one_more,
        route=(["thm2", "--bundle", "P1: O(0)^2 + O(1)^2", "--k", "0"],),
        golden=(["thm2", "--bundle", "P1: O(0)^2 + O(1) + O(2)", "--k", "0"],),
    ),
    # Q(-1) is compared against thm3_value, one int expression, which
    # takes no UniPoly.
    "UniPoly evaluation one more at a negative int": Mutation(
        exact.UniPoly, "__call__", _unipoly_one_more_at_a_negative_int,
        route=(["thm3", "--bundle", "P2: rank2(c1=3,c2=3)"],),
        golden=(["thm3", "--bundle", "P2: O(-1) + O(4)"],),
    ),
    # Both thm1 routes read the same ThreefoldNumerics, built after the
    # record and its geometry are merged, so no route comparison can see
    # the merge; the rows dp6-own-c12H and conic-own-c2H of the golden
    # case file set a field their geometry fixes.
    "the geometry's fixed numerics override the record": Mutation(
        bottcases, "_numerics_of", _fixed_numerics_override_the_record,
        golden=(["bott-report", "--cases", "{golden}/cases_all_geometries.ini"],),
    ),
    # A record's check is the one place that refuses h = 1/2; without it
    # both thm1 routes evaluate the record as it is and agree, so no route
    # comparison can see the check skipped.  The report exits 0 instead of 2.
    "a record skips its check": Mutation(
        bottcases, "_validate", lambda: lambda fields: None,
        golden=(["bott-report", "--cases", "{golden}/cases_bad_h.ini"],),
    ),
    # thm3's Q(-1) and its HRR = Q(b) check both read the views in b, and a
    # multiple of b + 1 is 0 at b = -1, so no route comparison sees it; the
    # Q lines change.  ROADMAP item 2's lattice count is the planned detector.
    "as_unipoly plus b + 1 in b": Mutation(
        exact.Poly, "as_unipoly", _unipoly_plus_b_plus_one,
        golden=(["thm3", "--bundle", "P2: rank2(c1=3,c2=3)"],
                ["thm3", "--bundle", "P2: O(-1) + O(4)"]),
    ),
}


def _clear_form_caches():
    for cached in (rr.chi_twisted_cotangent_symbolic,
                   theorems.thm2_chain_form, theorems.thm2_chain_poly,
                   theorems.thm3_Q_form, theorems.thm3_hrr_form, chern.sym_power_form,
                   chow._skeletons):
        cached.cache_clear()


@pytest.fixture
def fresh_forms():
    _clear_form_caches()
    yield
    _clear_form_caches()


def route_fails(argv) -> bool:
    got = run(argv)
    return got["code"] == 1 and got["out"].endswith("\nMISMATCH\n")


def golden_changes(argv) -> bool:
    return run(argv) != GOLDEN[tuple(argv)]


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_every_detector_catches_its_mutation(monkeypatch, fresh_forms, name):
    mutation = MUTATIONS[name]
    assert mutation.route or mutation.golden
    for argv in mutation.route:
        assert not route_fails(argv)
    for argv in mutation.golden:
        assert not golden_changes(argv)

    monkeypatch.setattr(mutation.module, mutation.name, mutation.value())
    _clear_form_caches()
    for argv in mutation.route:
        assert route_fails(argv), argv
    for argv in mutation.golden:
        assert golden_changes(argv), argv


def test_the_builtin_report_catches_subs_off_ints(monkeypatch, fresh_forms):
    """The built-in registry holds records with a free field (the conic's
    d, table 8's h); thm1's closed route substitutes none of them, so
    ``Poly.subs`` wrong off ints fails the report."""
    assert run(["bott-report"])["code"] == 0
    monkeypatch.setattr(exact.Poly, "subs", _subs_den_times_too_much_off_ints())
    _clear_form_caches()
    got = run(["bott-report"])
    assert got["code"] == 1 and got["out"] == ""
    assert got["err"].startswith("MISMATCH: record ")
    assert got["err"].endswith(": closed and derived obstruction disagree\n")
