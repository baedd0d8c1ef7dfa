"""What one bott-report record builds, counted.

A warm thm1 record whose value is not whole makes one Fraction per
route and nothing more; a route whose value is whole returns an int and
makes none.  The verdict takes the routes' number as it is, and the
report writes it without a Fraction (``exact._render`` against its
earlier Fraction route).  The one map that
``ThreefoldNumerics.substitutions`` builds for the record is substituted
by thm1's derived route, and by its closed route on a symbolic record.
The counts are the ones this code reaches; a change that makes more
fails here.
"""

import cProfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from bottcheck import bottcases, exact, theorems
from bottcheck.bottcases import CaseRecord, evaluate_case, report_json, report_rows
from bottcheck.exact import Poly
from bottcheck.theorems import ThreefoldNumerics

TABLE8 = CaseRecord(id="t", geometry="table8", h=3, c13=-12, c12H=14, c1H2=5, c2H=33,
                    H3=7)
CONIC = CaseRecord(id="c", geometry="conicBundle", h=2, c13=7, d=5)
CONIC_TEMPLATE = CaseRecord(id="c", geometry="conicBundle")
DP8 = CaseRecord(id="d", geometry="delPezzoFib8-small", a=(3, -4, 3, 17), k=-5)
PLANE = CaseRecord(id="p", geometry="p1BundleOverPlane", c1=-7, c2=12)


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


def test_a_warm_thm1_record_makes_one_fraction_per_route(count_fractions):
    evaluate_case(TABLE8)  # compiles both forms' int code
    verdict, made = count_fractions(lambda: evaluate_case(TABLE8))
    assert made == 2
    assert verdict.obstruction == theorems.thm1_closed(ThreefoldNumerics(
        h=3, c13=-12, c12H=14, c1H2=5, c2H=33, H3=7))


@pytest.mark.parametrize("record, fractions", [
    (TABLE8, 2),  # one per route: its value 45/2 is not whole
    (CONIC, 2),  # as TABLE8's: the numerics fixed in d are ints
    (DP8, 0),  # the chain's and the closed form's values are ints
    (PLANE, 0),  # Q(-1) and the closed form's value are ints
])
def test_a_warm_report_row_makes_only_the_routes_fractions(count_fractions, record,
                                                           fractions):
    report_json([record])
    _, made = count_fractions(lambda: report_json([record]))
    assert made == fractions


WHOLE_TABLE8 = CaseRecord(id="w", geometry="table8", h=0, c13=4, c12H=6, c1H2=6, c2H=24,
                          H3=6)


@pytest.mark.parametrize("record, value", [(WHOLE_TABLE8, 14), (DP8, 18), (PLANE, -16)])
def test_a_verdict_takes_the_routes_number_as_it_is(count_fractions, record, value):
    evaluate_case(record)
    verdict, made = count_fractions(lambda: evaluate_case(record))
    assert made == 0
    assert type(verdict.obstruction) is int and verdict.obstruction == value


def test_the_builtin_numerics_are_ints_and_its_report_makes_no_fraction(
        count_fractions):
    for rec in bottcases.builtin_registry():
        for name in ("h", "c13", "c12H", "c1H2", "c2H", "H3", "d", "k", "c1", "c2"):
            value = getattr(rec, name)
            assert value is None or type(value) is int, (rec.id, name)
    report_json(bottcases.builtin_registry())
    _, made = count_fractions(lambda: report_json(bottcases.builtin_registry()))
    assert made == 0


def test_both_routes_substitute_one_map_per_record(monkeypatch):
    maps = []
    real = ThreefoldNumerics.substitutions

    def recording(self):
        out = real(self)
        maps.append(out)
        return out

    monkeypatch.setattr(ThreefoldNumerics, "substitutions", recording)
    # The closed route substitutes nothing: it reads the fields, so only
    # the derived route builds the map.
    for rec in (TABLE8, CONIC, CONIC_TEMPLATE):
        maps.clear()
        evaluate_case(rec)
        assert len(maps) == 1


@pytest.mark.parametrize("fields, want", [
    ({}, 2 * Poly.sym("sum_a") + 4 * Poly.sym("k")),
    ({"k": 3}, 2 * Poly.sym("sum_a") + 12),
    ({"a": (1, 1, 2, 5)}, 18 + 4 * Poly.sym("k")),
])
def test_a_thm2_template_record_builds_no_symbol(monkeypatch, fields, want):
    """The symbols a dp8 record leaves unset (k, sum_a) are built once, at
    import, as d is; ``Poly.sym`` costs more than a thm1 route on
    numbers."""
    record = CaseRecord(id="x", geometry="delPezzoFib8-small", **fields)
    monkeypatch.setattr(Poly, "sym", None)  # calling it raises TypeError
    assert evaluate_case(record).obstruction == want


def test_the_kept_map_is_outside_the_fields():
    n = ThreefoldNumerics(h=3, c13=Fraction(1, 2))
    first = n.substitutions()
    assert first == {"h": 3, "c13": Fraction(1, 2)}
    fresh = ThreefoldNumerics(h=3, c13=Fraction(1, 2))
    assert n == fresh and hash(n) == hash(fresh) and repr(n) == repr(fresh)
    assert repr(n) == ("ThreefoldNumerics(h=3, c13=Fraction(1, 2), c12H=None, "
                       "c1H2=None, c2H=None, H3=None)")


def test_report_rows_names_the_record_only_for_a_value_too_long_to_print(monkeypatch):
    labels = []
    monkeypatch.setattr(bottcases, "check_printable",
                        lambda value, what: labels.append(what) or value)
    assert report_rows([TABLE8, DP8])[1]["obstruction"] == "45/2"
    assert labels == ["the obstruction"] * 2

    def refuse(value, what):
        raise ValueError(f"{what} has a coefficient of more than 1 digits")

    monkeypatch.setattr(bottcases, "check_printable", refuse)
    with pytest.raises(ValueError) as err:
        report_rows([TABLE8])
    assert str(err.value) == (
        "record 't': the obstruction has a coefficient of more than 1 digits"
    )


def _render_with_fractions(terms, den):
    """``exact._render`` as it was, writing each magnitude through Fraction."""
    parts = []
    for mono, n in terms:
        if n:
            mag = Fraction(abs(n), den)
            body = str(mag) if not mono else mono if mag == 1 else f"{mag}*{mono}"
            if parts:
                parts.append(f"- {body}" if n < 0 else f"+ {body}")
            else:
                parts.append(f"-{body}" if n < 0 else body)
    return " ".join(parts) or "0"


@given(st.lists(st.tuples(st.sampled_from(["", "h", "c13", "H^2*U"]),
                          st.integers(-10 ** 30, 10 ** 30) | st.integers(-12, 12)),
                max_size=5),
       st.integers(1, 10 ** 20) | st.integers(1, 24))
def test_render_writes_magnitudes_as_fraction_does(terms, den):
    assert exact._render(terms, den) == _render_with_fractions(terms, den)


def test_a_warm_render_makes_no_fraction(count_fractions):
    value = Fraction(87, 4) + Fraction(3, 2) * Poly.sym("h") - Poly.sym("c13")
    _, made = count_fractions(value.render)
    assert made == 0
