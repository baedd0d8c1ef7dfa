"""Case files as generated text: the CLI's exit-code contract on any file,
and the reader against ``configparser``, the format's reference, on the
files both accept and on the text configparser writes for any valid
records.  Only this test imports ``configparser``; the package does not,
and writes no case file."""

import configparser
import io

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bottcheck import bottcases, cli
from bottcheck.bottcases import (
    GEOMETRIES, CaseRecord, RegistryError, _read_records, load_registry,
)


@pytest.fixture(scope="module")
def case_path(tmp_path_factory):
    return tmp_path_factory.mktemp("cases") / "cases.ini"


def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


#: Every field of a case file, in the order ``_configparser_write`` writes them.
_FIELDS = ("geometry", "h", "c13", "c12H", "c1H2", "c2H", "H3", "d", "a", "k", "c1", "c2",
           "provenance")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


# --- any text: the exit-code contract -----------------------------------------

_values = st.one_of(
    st.sampled_from(GEOMETRIES + ("nonsense", "", "table8 ", "Table8")),
    st.integers(-50, 50).map(str),
    st.sampled_from(["1/2", "-7/3", "4/2", "1/0", "1e3", "2.5", "-9e4300",
                     "9e4300", "1e4301", "1e1000000", "0,0,1,2", "3,3,-1,5",
                     "0,1,2,3", "1,2,3", "0,0,x,1", "", "abc", "50% done",
                     "x\x0cy", "a\u2028b", "[b]", "= 4", "#not a comment"]),
)
_field_names = st.sampled_from(_FIELDS + ("bogus", "C13", "h h", "[a]", "a]"))
_delimiters = st.sampled_from(["=", " = ", ":", ": ", " :\t", "=  "])
_ids = st.sampled_from(["a", "b", "DEFAULT", " c ", "a]b", "[x", "r1", ""])
_indents = st.sampled_from(["", "", "", " ", "  ", "\t"])
_lines = st.one_of(
    st.builds(lambda i, r: f"{i}[{r}]", _indents, _ids),
    st.builds(lambda i, f, d, v: f"{i}{f}{d}{v}", _indents, _field_names,
              _delimiters, _values),
    st.builds(lambda i, f, d, v: f"{i}{f}{d}{v}", _indents,
              st.just("geometry"), _delimiters, st.sampled_from(GEOMETRIES)),
    st.sampled_from(["", "   ", "# comment", "; comment", "  # indented",
                     "[a] trailing junk", "[a", "a]", "[[a]]", "[]", "junk",
                     "[a]=1", "\x0c", " "]),
)
_texts = st.builds(
    lambda lines, newline, last: newline.join(lines) + last,
    st.lists(_lines, max_size=14),
    st.sampled_from(["\n", "\r\n", "\r"]),
    st.sampled_from(["", "\n"]),
)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_texts)
def test_any_case_file_keeps_the_exit_code_contract(case_path, text):
    _write(case_path, text)
    for flags in ((), ("--json",)):
        argv = ["bott-report", "--cases", str(case_path), *flags]
        code, out, err = _run(argv)
        assert _run(argv) == (code, out, err)
        assert code in (0, 1, 2)
        if code == 0:
            assert err == ""
        else:
            assert out == ""
            assert err.count("\n") == 1
            assert err.startswith("error: " if code == 2 else "MISMATCH: ")


# --- the accepted grammar: the reader against configparser --------------------

_name_chars = st.characters(blacklist_characters="\n\r=:",
                            blacklist_categories=("Cs",))
_line_chars = st.characters(blacklist_characters="\n\r", blacklist_categories=("Cs",))
_field = st.builds(lambda head, tail: head + tail,
                   st.sampled_from("abcdhkH_"), st.text(_name_chars, max_size=5))
_record_id = st.text(_line_chars, min_size=1, max_size=6).filter(
    lambda s: s != "DEFAULT")
_pad = st.sampled_from(["", " ", "\t", "  "])
_skipped = st.one_of(
    st.builds(lambda p, c, t: p + c + t, _pad, st.sampled_from("#;"),
              st.text(_line_chars, max_size=8)),
    _pad,
)


@st.composite
def _accepted_files(draw):
    """Text inside the grammar both readers share: no [DEFAULT], no
    indented field or header, nothing after a header's "]", no repeat."""
    lines = draw(st.lists(_skipped, max_size=2))
    ids = draw(st.lists(_record_id, max_size=4, unique=True))
    for record_id in ids:
        lines.append(f"[{record_id}]" + draw(_pad))
        names = draw(st.lists(_field, max_size=4, unique_by=str.rstrip))
        for name in names:
            lines.append(name + draw(_pad) + draw(st.sampled_from("=:")) + draw(_pad)
                         + draw(st.text(_line_chars, max_size=10)))
            lines.extend(draw(st.lists(_skipped, max_size=1)))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


def _configparser_records(path):
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    with open(path, encoding="utf-8") as fh:
        parser.read_file(fh)
    return {s: dict(parser.items(s)) for s in parser.sections()}


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_accepted_files())
def test_reader_matches_configparser_on_the_accepted_grammar(case_path, text):
    _write(case_path, text)
    with open(case_path, encoding="utf-8") as fh:
        records = _read_records(fh)
    assert records == _configparser_records(case_path)


# --- records written by configparser read back ---------------------------------


def _configparser_write(records):
    """The case file of ``records`` as configparser writes it: ``[id]``, a
    ``field = value`` line per field set, and a blank line, per record."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    for rec in records:
        parser.add_section(rec.id)
        for field in _FIELDS:
            value = getattr(rec, field)
            if value is None or value == "":
                continue
            parser.set(rec.id, field,
                       ",".join(map(str, value)) if field == "a" else str(value))
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


_one_line = st.text(_line_chars, max_size=12).map(str.strip)
_rationals = st.fractions(max_denominator=50).filter(lambda q: abs(q) < 10 ** 6)


@st.composite
def _records(draw):
    geometry = draw(st.sampled_from(GEOMETRIES))
    fields = {"provenance": draw(_one_line)}
    if geometry.startswith("delPezzoFib8"):
        fields["k"] = draw(st.integers(-30, 30))
        if draw(st.booleans()):
            a = draw(st.lists(st.integers(-9, 9), min_size=3, max_size=3))
            fields["a"] = tuple(a + [a[draw(st.integers(0, 2))]])
    elif geometry == "p1BundleOverPlane":
        fields["c1"], fields["c2"] = draw(st.integers(-30, 30)), draw(st.integers(-30, 30))
    else:
        if geometry == "conicBundle":
            fields["d"] = draw(st.integers(1, 30))
        if draw(st.booleans()):
            fields["h"] = draw(st.integers(0, 30))
        for name in ("c13", "c12H", "c1H2", "c2H", "H3"):
            if draw(st.booleans()):
                fields[name] = draw(_rationals)
    return geometry, fields


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(_record_id, _records()),
                max_size=4, unique_by=lambda pair: pair[0]))
def test_serialized_records_read_back(case_path, drawn):
    records = [CaseRecord(id=rid, geometry=g, **fields) for rid, (g, fields) in drawn]
    _write(case_path, _configparser_write(records))
    assert load_registry(case_path) == records


@pytest.mark.parametrize("text, record_id, field", [
    ("[]\ngeometry = table8\n", None, None),
    ("[x]\ngeometry = table8\n\n[x]\ngeometry = table9\n", "x", "id"),
    ("[x]\ngeometry = table8\nk = 5\n", "x", "k"),
    ("[x]\ngeometry = delPezzoFib8-small\na = 0,0,1\nk = 0\n", "x", "a"),
    ("[x]\ngeometry = conicBundle\nd = 1\na = 0,0,1,2\n", "x", "a"),
])
def test_the_reader_refuses_a_record_no_case_file_holds(case_path, text, record_id,
                                                        field):
    """An empty id, a repeated id, a field the geometry does not use and an
    ``a`` of the wrong length are each refused, naming the record and the
    field where the file has them."""
    _write(case_path, text)
    with pytest.raises(RegistryError) as err:
        load_registry(case_path)
    assert (err.value.record_id, err.value.field) == (record_id, field)


@pytest.mark.parametrize("text, record", [
    ("[x]\ngeometry = table8\nprovenance =  padded \n",
     CaseRecord(id="x", geometry="table8", provenance="padded")),
    ("[x]\ngeometry = table8\nprovenance = tab\t\n",
     CaseRecord(id="x", geometry="table8", provenance="tab")),
    ("[x]\ngeometry =  table8\n", CaseRecord(id="x", geometry="table8")),
])
def test_a_value_is_read_without_its_padding(case_path, text, record):
    """A value's leading and trailing whitespace is no part of it, so a
    record whose geometry or provenance is padded has no case file."""
    _write(case_path, text)
    assert load_registry(case_path) == [record]


def test_the_fields_are_the_ones_the_reader_reads():
    # The id is in the field table too, but its header gives it, not a line.
    assert _FIELDS == tuple(name for name, (read, _, _) in bottcases._FIELDS.items() if read)
