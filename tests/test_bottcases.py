import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bottcheck.bottcases import (
    FAILS_BY_NEGATIVE_CHI,
    GEOMETRIES,
    GEOMETRY_TABLE,
    INCONCLUSIVE,
    NEEDS_H0_CHECK,
    CaseRecord,
    RegistryError,
    builtin_registry,
    evaluate_case,
    load_registry,
    report_json,
    report_rows,
    report_text,
    with_twists,
)
from bottcheck.bottcases import _parse_record
from bottcheck.exact import Poly, replace
from bottcheck.theorems import ThreefoldNumerics
from test_case_files import _configparser_write


def _by_id(records):
    return {r.id: r for r in records}


class TestEvaluate:
    def test_table8_no1(self):
        rec = _by_id(builtin_registry())["table8-no1"]
        verdict = evaluate_case(rec)
        assert verdict.obstruction == 14 + Poly.sym("h")
        assert verdict.obstruction.render() == "14 + h"
        assert verdict.conclusion == FAILS_BY_NEGATIVE_CHI

    def test_table8_no2(self):
        verdict = evaluate_case(_by_id(builtin_registry())["table8-no2"])
        assert verdict.obstruction == 21 + Poly.sym("h")
        assert verdict.conclusion == FAILS_BY_NEGATIVE_CHI

    def test_table9(self):
        verdict = evaluate_case(_by_id(builtin_registry())["table9"])
        assert verdict.obstruction.render() == "20 + h"
        assert verdict.conclusion == FAILS_BY_NEGATIVE_CHI

    def test_plane_bundle_33(self):
        verdict = evaluate_case(_by_id(builtin_registry())["p1bundle-33"])
        assert verdict.obstruction == 0
        assert verdict.conclusion == NEEDS_H0_CHECK
        assert "h^0" in verdict.note

    def test_dp6_template_stays_symbolic(self):
        verdict = evaluate_case(_by_id(builtin_registry())["dp6"])
        assert verdict.obstruction == (
            13 + Poly.sym("h") - Poly.sym("c13") / 2
        )
        assert verdict.conclusion == INCONCLUSIVE

    def test_conic_template_stays_symbolic(self):
        verdict = evaluate_case(_by_id(builtin_registry())["conic"])
        assert verdict.obstruction == (
            3 + 2 * Poly.sym("d") + Poly.sym("h") - Poly.sym("c13") / 2
        )

    @pytest.mark.parametrize(
        "case_id,k", [("dp8-div-i", 0), ("dp8-div-ii", 0), ("dp8-div-iii", -1),
                      ("dp8-div-iv", 2)]
    )
    def test_dp8_with_user_twists(self, case_id, k):
        rec = _by_id(builtin_registry())[case_id]
        assert rec.k == k
        # any user twists with sum + 2k > 0 must fail Bott vanishing
        twists = (0, 0, 2, 3)
        verdict = evaluate_case(with_twists(rec, twists))
        assert verdict.obstruction == 2 * (sum(twists) + 2 * k)
        assert verdict.conclusion == FAILS_BY_NEGATIVE_CHI

    def test_deterministic_and_order_independent(self):
        records = builtin_registry()
        first = [evaluate_case(r) for r in records]
        second = [evaluate_case(r) for r in reversed(records)]
        assert first == list(reversed(second))

    def test_obstructions_affine_in_h_with_nonnegative_coefficient(self):
        for rec in builtin_registry():
            ob = evaluate_case(rec).obstruction
            if isinstance(ob, Poly):
                assert all(c >= 0 for _, c in ob.coeff({"h": 1}).coeffs)

    def test_unknown_geometry(self):
        with pytest.raises(RegistryError):
            evaluate_case(CaseRecord(id="x", geometry="nonsense"))

    def test_plane_bundle_requires_chern_numbers(self):
        with pytest.raises(RegistryError):
            evaluate_case(CaseRecord(id="x", geometry="p1BundleOverPlane"))


class TestRegistry:
    def test_builtin_covers_all_clauses(self):
        records = builtin_registry()
        assert len(records) >= 6
        assert len({r.id for r in records}) == len(records)
        assert all(r.provenance for r in records)

    def test_round_trip(self, tmp_path):
        # templates with deliberately unset required fields (conic without d)
        # are builtin-only and cannot appear in a user file, so round-trip
        # the fully-specifiable records
        records = [r for r in builtin_registry() if r.id != "conic"]
        path = tmp_path / "cases.ini"
        path.write_text(_configparser_write(records))
        assert load_registry(path) == records

    def test_serialized_template_rejected_on_load(self, tmp_path):
        template = [r for r in builtin_registry() if r.id == "conic"]
        path = tmp_path / "cases.ini"
        path.write_text(_configparser_write(template))
        with pytest.raises(RegistryError) as err:
            load_registry(path)
        assert err.value.field == "d"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("")
        assert load_registry(path) == []

    def test_conic_without_d_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[c1]\ngeometry = conicBundle\n")
        with pytest.raises(RegistryError) as err:
            load_registry(path)
        assert err.value.record_id == "c1" and err.value.field == "d"

    def test_all_distinct_twists_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[r]\ngeometry = delPezzoFib8-small\nk = 0\na = 0,1,2,3\n")
        with pytest.raises(RegistryError) as err:
            load_registry(path)
        assert err.value.field == "a"

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[r]\ngeometry = table8\nbogus = 1\n")
        with pytest.raises(RegistryError):
            load_registry(path)

    @pytest.mark.parametrize(
        "text,record_id,field",
        [
            ("h = 3\n[r]\ngeometry = table8\n", None, None),
            ("[r]\ngeometry = table8\n[r]\ngeometry = table9\n", "r", "id"),
            ("[r]\ngeometry = table8\nh = 1\nh = 2\n", "r", "h"),
            ("[r]\ngeometry = table8\nid = s\n", "r", "id"),
        ],
        ids=["no-section-header", "duplicate-section", "duplicate-option", "id-line"],
    )
    def test_malformed_file_rejected(self, tmp_path, text, record_id, field):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(RegistryError) as err:
            load_registry(path)
        assert (err.value.record_id, err.value.field) == (record_id, field)
        assert "\n" not in str(err.value)

    def test_negative_h_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[r]\ngeometry = table8\nh = -5\n")
        with pytest.raises(RegistryError) as err:
            load_registry(path)
        assert err.value.record_id == "r" and err.value.field == "h"

    def test_user_file(self, tmp_path):
        path = tmp_path / "cases.ini"
        path.write_text(
            "[mine]\n"
            "geometry = table8\n"
            "h = 0\n"
            "c13 = 4\n"
            "c12H = 6\n"
            "c1H2 = 6\n"
            "c2H = 24\n"
            "H3 = 6\n"
            "provenance = user\n"
        )
        (rec,) = load_registry(path)
        verdict = evaluate_case(rec)
        assert verdict.obstruction == 14
        assert verdict.conclusion == FAILS_BY_NEGATIVE_CHI


class TestReport:
    def test_rows_sorted_and_complete(self):
        rows = report_rows(builtin_registry())
        assert [r["id"] for r in rows] == sorted(r["id"] for r in rows)
        for row in rows:
            assert set(row) == {
                "id", "geometry", "obstruction", "conclusion", "provenance"
            }

    def test_fully_determined_cases_all_fail_except_plane_bundle(self):
        rows = {r["id"]: r for r in report_rows(builtin_registry())}
        assert rows["table8-no1"]["conclusion"] == FAILS_BY_NEGATIVE_CHI
        assert rows["table8-no2"]["conclusion"] == FAILS_BY_NEGATIVE_CHI
        assert rows["table9"]["conclusion"] == FAILS_BY_NEGATIVE_CHI
        assert rows["p1bundle-33"]["conclusion"] == NEEDS_H0_CHECK
        assert rows["p1bundle-33"]["obstruction"] == "0"

    def test_single_case(self):
        rec = _by_id(builtin_registry())["table9"]
        (row,) = report_rows([rec])
        assert row["obstruction"] == "20 + h"

    def test_empty(self):
        assert report_rows([]) == []
        assert report_text([]) == ""

    def test_json_schema_stable(self):
        payload = json.loads(report_json(builtin_registry()))
        assert [list(entry) for entry in payload] == [
            ["id", "geometry", "obstruction", "conclusion", "provenance"]
        ] * len(payload)

    def test_text_deterministic(self):
        assert report_text(builtin_registry()) == report_text(builtin_registry())


class TestRegistryFileValues:
    def test_non_integer_h_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(
            "[r]\ngeometry = table8\nh = 1/2\nc13 = 4\nc12H = 6\n"
            "c1H2 = 6\nc2H = 24\nH3 = 6\n"
        )
        with pytest.raises(RegistryError) as err:
            load_registry(path)
        assert err.value.record_id == "r" and err.value.field == "h"

    def test_integral_fraction_h_accepted(self, tmp_path):
        path = tmp_path / "cases.ini"
        path.write_text("[r]\ngeometry = table8\nh = 4/2\n")
        (rec,) = load_registry(path)
        assert rec.h == 2

    def test_percent_in_provenance_round_trips(self, tmp_path):
        records = [
            CaseRecord(id="x", geometry="table8", provenance="50% done"),
            CaseRecord(id="y", geometry="table9", h=1, provenance="%(h)s and %%"),
        ]
        path = tmp_path / "cases.ini"
        path.write_text("[x]\ngeometry = table8\nprovenance = 50% done\n\n"
                        "[y]\ngeometry = table9\nh = 1\nprovenance = %(h)s and %%\n")
        assert load_registry(path) == records

    def test_percent_read_verbatim(self, tmp_path):
        path = tmp_path / "cases.ini"
        path.write_text("[r]\ngeometry = table8\nprovenance = 50%% of 100%\n")
        (rec,) = load_registry(path)
        assert rec.provenance == "50%% of 100%"


def _thm1_value(h, c13, c12H, c1H2, c2H, H3):
    """The closed form of the thm1 obstruction, written out with Fractions."""
    return (16 + h - Fraction(c13, 2) - Fraction(5, 4) * (c12H + c1H2)
            + Fraction(3, 4) * c2H - Fraction(H3, 2))


class TestGeometryNumericsYieldToTheRecord:
    def test_dp6_record_keeps_its_own_c12H(self):
        rec = CaseRecord(id="r", geometry="delPezzoFib6", h=1, c13=4, c12H=7)
        verdict = evaluate_case(rec)
        assert verdict.obstruction == _thm1_value(1, 4, 7, 0, 6, 0)
        assert verdict.obstruction != _thm1_value(1, 4, 6, 0, 6, 0)

    def test_conic_record_keeps_its_own_c12H(self):
        rec = CaseRecord(id="r", geometry="conicBundle", h=0, c13=2, d=4,
                         c12H=Fraction(1, 3))
        verdict = evaluate_case(rec)
        assert verdict.obstruction == _thm1_value(0, 2, Fraction(1, 3), 2, 10, 0)

    def test_conic_record_with_c12H_and_symbolic_d(self):
        d = Poly.sym("d")
        rec = CaseRecord(id="r", geometry="conicBundle", c12H=5)
        want = _thm1_value(0, 0, 5, 2, 0, 0) + Poly.sym("h") \
            - Poly.sym("c13") / 2 + Fraction(3, 4) * (d + 6)
        assert evaluate_case(rec).obstruction == want

    def test_conic_without_d_stays_symbolic(self):
        verdict = evaluate_case(CaseRecord(id="r", geometry="conicBundle"))
        assert verdict.obstruction == (
            3 + 2 * Poly.sym("d") + Poly.sym("h") - Poly.sym("c13") / 2
        )
        assert verdict.obstruction.render() == "3 - 1/2*c13 + 2*d + h"

    def test_numerics_pass_ints_and_affines_through(self):
        d = 12 - Poly.sym("d")
        subs = ThreefoldNumerics(h=3, c13=Fraction(1, 2), c12H=d).substitutions()
        assert subs == {"h": 3, "c13": Fraction(1, 2), "c12H": d}
        assert type(subs["h"]) is int and subs["c12H"] is d


class TestParseRecordNumbers:
    @pytest.mark.parametrize("text", ["4/2", "1e3", "0.5", "1_000", "+5", "-7/3",
                                      "007", " 12 "])
    def test_accepted_strings_keep_their_values(self, text):
        rec = _parse_record("r", {"geometry": "table8", "c13": text})
        assert rec.c13 == Fraction(text)

    @pytest.mark.parametrize("text", ["1__0", "_1", "0x10", "1/0", "abc", "1 000",
                                      "+ 5", "--5", ""])
    def test_rejected_strings_stay_rejected(self, text):
        with pytest.raises(RegistryError, match="cannot parse"):
            _parse_record("r", {"geometry": "table8", "c13": text})

    @given(st.text(alphabet="0123456789+-_/. ", max_size=8))
    def test_accepts_what_fraction_accepts(self, text):
        try:
            want = Fraction(text.strip())
        except (ValueError, ZeroDivisionError):
            want = None
        try:
            got = _parse_record("r", {"geometry": "table8", "c13": text}).c13
        except RegistryError:
            got = None
        assert got == want


class TestParseRecordExponentBound:
    @pytest.mark.parametrize("key", ["h", "c13", "c2H", "H3"])
    @pytest.mark.parametrize("text", ["1e1000000", "7/1e5", "-1E-10000000"])
    def test_exponent_past_the_digit_limit_names_record_and_field(self, key, text):
        if "/" in text:  # not Fraction syntax: still the plain parse error
            with pytest.raises(RegistryError, match="cannot parse"):
                _parse_record("r", {"geometry": "table8", key: text})
            return
        with pytest.raises(RegistryError) as err:
            _parse_record("r", {"geometry": "table8", key: text})
        assert (err.value.record_id, err.value.field) == ("r", key)
        assert f"the exponent of {text!r} exceeds" in str(err.value)

    def test_exponents_within_the_limit_still_parse(self):
        rec = _parse_record("r", {"geometry": "table8", "c13": "1e3", "H3": "25e-2"})
        assert (rec.c13, rec.H3) == (1000, Fraction(1, 4))


def _load_text(tmp_path, text, newline=None):
    path = tmp_path / "cases.ini"
    with open(path, "w", encoding="utf-8", newline=newline) as fh:
        fh.write(text)
    return load_registry(path)


class TestMissingGeometry:
    @pytest.mark.parametrize("text", ["[a]\nh = 3\n", "[a]\n"])
    def test_record_without_geometry_names_the_field(self, tmp_path, text):
        with pytest.raises(RegistryError) as err:
            _load_text(tmp_path, text)
        assert (err.value.record_id, err.value.field) == ("a", "geometry")
        assert str(err.value) == "record 'a', field 'geometry': required for every record"


_ALLOWED = {
    "delPezzoFib6": {"h", "c13", "c12H", "c1H2", "c2H", "H3"},
    "conicBundle": {"h", "c13", "c12H", "c1H2", "c2H", "H3", "d"},
    "table8": {"h", "c13", "c12H", "c1H2", "c2H", "H3"},
    "table9": {"h", "c13", "c12H", "c1H2", "c2H", "H3"},
    "table75no1": {"h", "c13", "c12H", "c1H2", "c2H", "H3"},
    "delPezzoFib8-small": {"a", "k"},
    "delPezzoFib8-divisorial": {"a", "k"},
    "p1BundleOverPlane": {"c1", "c2"},
}
_REQUIRED = {"conicBundle": {"d": "2"}, "delPezzoFib8-small": {"k": "0"},
             "delPezzoFib8-divisorial": {"k": "0"},
             "p1BundleOverPlane": {"c1": "3", "c2": "3"}}
_SAMPLE = {"h": "1", "c13": "4", "c12H": "6", "c1H2": "6", "c2H": "24", "H3": "6",
           "d": "3", "a": "0,0,1,2", "k": "1", "c1": "2", "c2": "1"}


class TestUnusedFields:
    @pytest.mark.parametrize("geometry", sorted(_ALLOWED))
    @pytest.mark.parametrize("field", sorted(_SAMPLE))
    def test_a_field_is_read_iff_the_geometry_uses_it(self, geometry, field):
        items = {"geometry": geometry, "provenance": "p",
                 **_REQUIRED.get(geometry, {}), field: _SAMPLE[field]}
        if field in _ALLOWED[geometry]:
            rec = _parse_record("r", items)
            assert getattr(rec, field) is not None and rec.provenance == "p"
            return
        with pytest.raises(RegistryError) as err:
            _parse_record("r", items)
        assert (err.value.record_id, err.value.field) == ("r", field)
        assert str(err.value).endswith(f": not used by geometry {geometry!r}")


class TestCaseFileGrammar:
    def test_default_is_an_ordinary_record(self, tmp_path):
        text = "[DEFAULT]\ngeometry = table8\nh = 3\n[a]\ngeometry = table9\nc13 = 4\n"
        default, a = _load_text(tmp_path, text)
        assert (default.id, default.geometry, default.h) == ("DEFAULT", "table8", 3)
        assert (a.id, a.geometry, a.h, a.c13) == ("a", "table9", None, 4)

    def test_default_fields_are_not_merged(self, tmp_path):
        text = "[DEFAULT]\ngeometry = table8\nh = 3\n[a]\nc13 = 4\n"
        with pytest.raises(RegistryError) as err:
            _load_text(tmp_path, text)
        assert (err.value.record_id, err.value.field) == ("a", "geometry")

    @pytest.mark.parametrize("header", ["[a] trailing junk", "[a]x", "[a] # note"])
    def test_text_after_the_header_is_rejected(self, tmp_path, header):
        with pytest.raises(RegistryError) as err:
            _load_text(tmp_path, f"{header}\ngeometry = table8\n")
        assert (err.value.record_id, err.value.field) == (None, None)
        assert str(err.value).startswith("line 1: ")
        assert repr(header) in str(err.value)

    def test_indentation_means_nothing(self, tmp_path):
        text = "  [a]\n\tgeometry = table8\n    h = 3\n  provenance = one line\n"
        (rec,) = _load_text(tmp_path, text)
        assert (rec.id, rec.geometry, rec.h, rec.provenance) == (
            "a", "table8", 3, "one line")

    def test_a_value_is_one_line(self, tmp_path):
        text = "[a]\ngeometry = table8\nprovenance = first\n  second\n"
        with pytest.raises(RegistryError) as err:
            _load_text(tmp_path, text)
        assert str(err.value) == (
            "line 4: expected [id], field = value or a comment, got 'second'")

    def test_colon_comments_and_blank_lines(self, tmp_path):
        text = ("# a comment\n; another\n\n[a]\n  # indented comment\n"
                "geometry: table8\nh:2\nc13=4\nprovenance = x = y: z ; w\n\n")
        (rec,) = _load_text(tmp_path, text)
        assert (rec.geometry, rec.h, rec.c13, rec.provenance) == (
            "table8", 2, 4, "x = y: z ; w")

    @pytest.mark.parametrize("header,record_id", [
        ("[ a b ]", " a b "), ("[a]b]", "a]b"), ("[[a]", "[a"), ("[a=b]", "a=b"),
        ("[#x]", "#x"),
    ])
    def test_id_is_kept_verbatim(self, tmp_path, header, record_id):
        (rec,) = _load_text(tmp_path, f"{header}\ngeometry = table9\n")
        assert rec.id == record_id

    @pytest.mark.parametrize("line", ["[]", "[a", "junk", "= 5", ": x", "[a] = 5"])
    def test_any_other_line_is_rejected_naming_line_and_text(self, tmp_path, line):
        with pytest.raises(RegistryError) as err:
            _load_text(tmp_path, f"[r]\ngeometry = table8\n{line}\n")
        if line == "[a] = 5":  # a field named "[a]"
            assert (err.value.record_id, err.value.field) == ("r", "[a]")
            return
        assert (err.value.record_id, err.value.field) == (None, None)
        assert str(err.value) == (
            f"line 3: expected [id], field = value or a comment, got {line!r}")

    def test_field_before_the_first_header(self, tmp_path):
        with pytest.raises(RegistryError) as err:
            _load_text(tmp_path, "# c\n\nh = 3\n[r]\ngeometry = table8\n")
        assert str(err.value) == "line 3: field 'h' before the first [id]"

    @pytest.mark.parametrize("text,line", [
        ("[r]\ngeometry = table8\njunk\n[r]\n", 3),
        ("[r]\ngeometry = table8\n[r]\njunk\n", 3),
        ("[r]\nh = 1\nh = 2\njunk\n", 3),
        ("[r]\njunk\nh = 1\nh = 2\n", 2),
    ])
    def test_first_fault_in_file_order(self, tmp_path, text, line):
        with pytest.raises(RegistryError) as err:
            _load_text(tmp_path, text)
        assert f"line {line}" in str(err.value)

    def test_duplicate_messages(self, tmp_path):
        with pytest.raises(RegistryError, match=r"^record 'r', field 'id': "
                           r"duplicate record on line 3$"):
            _load_text(tmp_path, "[r]\ngeometry = table8\n[r]\n")
        with pytest.raises(RegistryError, match=r"^record 'r', field 'h': "
                           r"duplicate field on line 3$"):
            _load_text(tmp_path, "[r]\nh = 1\nh : 2\n")

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_universal_newlines(self, tmp_path, newline):
        text = "[a]\ngeometry = table8\nh = 3\n"
        (rec,) = _load_text(tmp_path, text, newline=newline)
        assert (rec.id, rec.h) == ("a", 3)

    @pytest.mark.parametrize("char", ["\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                      "\u2028", "\u2029", "\x0b"])
    def test_only_universal_newlines_end_a_line(self, tmp_path, char):
        text = f"[a]\ngeometry = table8\nprovenance = x{char}y\n"
        (rec,) = _load_text(tmp_path, text)
        assert rec.provenance == f"x{char}y"


class TestALineBreakEndsTheValue:
    @pytest.mark.parametrize("brk", ["\n", "\r", "\r\n"])
    def test_a_value_or_an_id_cannot_hold_a_line_break(self, tmp_path, brk):
        with pytest.raises(RegistryError) as err:
            _load_text(tmp_path, f"[a]\ngeometry = table8\nprovenance = x{brk}y\n",
                       newline="")
        assert (err.value.record_id, err.value.field) == (None, None)
        assert str(err.value) == (
            "line 4: expected [id], field = value or a comment, got 'y'")
        with pytest.raises(RegistryError) as err:
            _load_text(tmp_path, f"[a{brk}b]\ngeometry = table8\n", newline="")
        assert str(err.value) == (
            "line 1: expected [id], field = value or a comment, got '[a'")

    def test_layout(self, tmp_path):
        records = [CaseRecord(id="x", geometry="delPezzoFib8-small", a=(0, 0, 1, 2),
                              k=-1, provenance="p"),
                   CaseRecord(id="y", geometry="table8", c13=Fraction(1, 2))]
        assert _load_text(tmp_path, (
            "[x]\ngeometry = delPezzoFib8-small\na = 0,0,1,2\nk = -1\n"
            "provenance = p\n\n[y]\ngeometry = table8\nc13 = 1/2\n\n")) == records


class TestObstructionTooLongToPrint:
    def test_report_names_the_record(self):
        limit = sys.get_int_max_str_digits()
        rec = CaseRecord(id="big", geometry="table8", c13=-9 * 10 ** limit)
        with pytest.raises(ValueError) as err:
            report_rows([rec])
        assert str(err.value) == (
            "record 'big': the obstruction has a coefficient of more than "
            f"{limit} digits")

    def test_longest_printable_obstruction_is_reported(self):
        limit = sys.get_int_max_str_digits()
        rec = CaseRecord(id="edge", geometry="table8", h=10 ** limit - 15, c13=4,
                         c12H=6, c1H2=6, c2H=24, H3=6)
        (row,) = report_rows([rec])
        assert row["obstruction"] == "9" * limit


class TestGeometryTable:
    def test_one_row_per_geometry_with_its_fields(self):
        assert GEOMETRIES == tuple(GEOMETRY_TABLE)
        assert set(GEOMETRY_TABLE) == set(_ALLOWED)
        for name, row in GEOMETRY_TABLE.items():
            assert set(row.allowed) == _ALLOWED[name]
            assert set(row.required) == set(_REQUIRED.get(name, {}))

    @pytest.mark.parametrize("a, message", [
        ("0,1,2,3", "the four twists must not be all distinct, got (0, 1, 2, 3)"),
        ("0,0,1", "need exactly 4 twists, got 3"),
    ])
    def test_twist_hypothesis_names_record_and_field(self, a, message):
        with pytest.raises(RegistryError) as err:
            _parse_record("r", {"geometry": "delPezzoFib8-small", "k": "0", "a": a})
        assert str(err.value) == f"record 'r', field 'a': {message}"

    def test_conic_numerics_take_the_records_d(self):
        rec = CaseRecord(id="c", geometry="conicBundle", d=4, h=Fraction(1),
                         c13=Fraction(1, 2))
        symbolic = evaluate_case(replace(rec, d=None)).obstruction
        assert evaluate_case(rec).obstruction == symbolic.subs({"d": 4})


class TestARecordChecksItself:
    """``CaseRecord`` refuses, when it is made, all that the reader refuses
    in a record but a missing required field; so no evaluator sees it."""

    @pytest.mark.parametrize("geometry, fields, field, message", [
        ("table8", {"h": -3}, "h", "the Hodge number h must be >= 0"),
        ("delPezzoFib8-small", {"a": (0, 1, 2, 3)}, "a",
         "the four twists must not be all distinct, got (0, 1, 2, 3)"),
        ("table8", {"k": 5}, "k", "not used by geometry 'table8'"),
        ("p1BundleOverPlane", {"c1": Fraction(7, 2), "c2": 3}, "c1",
         "must be of type int, got Fraction(7, 2)"),
        ("delPezzoFib8-small", {"k": Fraction(1, 2)}, "k",
         "must be of type int, got Fraction(1, 2)"),
        ("conicBundle", {"d": Fraction(5, 2)}, "d", "must be of type int, got Fraction(5, 2)"),
        ("table8", {"c13": 0.1}, "c13", "must be of type int or Fraction, got 0.1"),
        ("delPezzoFib8-small", {"a": [0, 0, 1, 2], "k": 0}, "a",
         "must be of type tuple, got [0, 0, 1, 2]"),
        ("delPezzoFib8-small", {"a": (0, 0, Fraction(1, 2), 1)}, "a",
         "the twists must be ints, got (0, 0, Fraction(1, 2), 1)"),
        ("nonsense", {}, "geometry", "unknown geometry 'nonsense'"),
    ])
    def test_a_bad_record_is_refused_when_it_is_made(self, geometry, fields, field,
                                                     message):
        with pytest.raises(RegistryError) as err:
            CaseRecord(id="x", geometry=geometry, **fields)
        assert (err.value.record_id, err.value.field) == ("x", field)
        assert str(err.value) == f"record 'x', field {field!r}: {message}"

    @pytest.mark.parametrize("fields, field, message", [
        ({"provenance": None}, "provenance", "must be of type str, got None"),
        ({"provenance": 5}, "provenance", "must be of type str, got 5"),
        ({"geometry": ["table8"]}, "geometry", "must be of type str, got ['table8']"),
        ({"id": 7}, "id", "must be of type str, got 7"),
    ])
    def test_a_field_of_text_must_be_a_str(self, fields, field, message):
        fields = {"id": "x", "geometry": "table8", **fields}
        with pytest.raises(RegistryError) as err:
            CaseRecord(**fields)
        assert (err.value.record_id, err.value.field) == (fields["id"], field)
        name = "7" if field == "id" else "'x'"
        assert str(err.value) == f"record {name}, field {field!r}: {message}"

    def test_replace_and_with_twists_check_again(self):
        dp8 = CaseRecord(id="x", geometry="delPezzoFib8-small", k=0)
        with pytest.raises(RegistryError) as err:
            with_twists(dp8, [0, 1, 2, 3])
        assert (err.value.record_id, err.value.field) == ("x", "a")
        with pytest.raises(RegistryError) as err:
            replace(CaseRecord(id="t", geometry="table8"), h=-1)
        assert (err.value.record_id, err.value.field) == ("t", "h")

    def test_a_plane_bundle_without_c1_gives_the_readers_message(self, tmp_path):
        message = "record 'p', field 'c1': required for this geometry"
        with pytest.raises(RegistryError) as err:
            evaluate_case(CaseRecord(id="p", geometry="p1BundleOverPlane", c2=3))
        assert str(err.value) == message
        with pytest.raises(RegistryError) as err:
            _load_text(tmp_path, "[p]\ngeometry = p1BundleOverPlane\nc2 = 3\n")
        assert str(err.value) == message

    @pytest.mark.parametrize("text, field", [
        ("[r]\ngeometry = conicBundle\nh = -1\nk = 2\n", "k"),
        ("[r]\ngeometry = conicBundle\nh = -1\n", "h"),
    ])
    def test_a_record_reports_an_unused_field_then_a_hypothesis_then_a_missing_one(
            self, tmp_path, text, field):
        with pytest.raises(RegistryError) as err:
            _load_text(tmp_path, text)
        assert (err.value.record_id, err.value.field) == ("r", field)
