"""``bott-report --cases FILE [--json]`` over generated case files.

The argv grammar of ``test_cli_argv.py`` draws case files from a fixed
list; here the file is drawn too: records of every geometry, with values
inside and outside their rules (``d <= 0`` among them), and ids and
provenances with non-ASCII text, quotes, backslashes and control
characters.  Every run ends in exit 0, 1 or 2 without an exception, and
an exit-0 JSON report is valid JSON equal to ``json.dumps`` of the rows
the reader and ``report_rows`` give for the same file.
"""

import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bottcheck import cli
from bottcheck.bottcases import GEOMETRIES, GEOMETRY_TABLE, load_registry, report_rows

# One line of text: anything but the line breaks that text mode reads.
_one_line = st.text(
    st.one_of(st.sampled_from('"\\é€\U0001f600\x00\x1f\x7f\x85\u2028\t=:#[]'),
              st.characters(blacklist_characters="\r\n")),
    max_size=10,
)
_small = st.integers(-6, 12).map(str)
_values = {
    "h": st.one_of(_small, st.sampled_from(["1/2", "-1", "4/2"])),
    "c13": st.one_of(_small, st.sampled_from(["-7/3", "1e2", "x"])),
    "c12H": _small, "c1H2": _small, "c2H": _small, "H3": _small,
    "d": st.integers(-3, 12).map(str),
    "a": st.lists(st.integers(-2, 2), min_size=3, max_size=5).map(
        lambda a: ",".join(map(str, a))),
    "k": _small,
    "c1": st.integers(-9, 9).map(str),
    "c2": st.integers(-9, 9).map(str),
}


@st.composite
def _case_files(draw):
    """The text of a case file of up to four records.  Each has a
    geometry, and either the fields it requires and some it allows, or up
    to four fields of any geometry; most ids are numbered, so that few
    repeat, and a provenance may hold a lone surrogate, which makes the
    file invalid UTF-8."""
    lines = []
    for index in range(draw(st.integers(0, 4))):
        prefix = draw(st.sampled_from([f"r{index}", f"r{index}", ""]))
        lines.append(f"[{prefix}{draw(_one_line)}]")
        geometry = draw(st.sampled_from(GEOMETRIES))
        lines.append(f"geometry = {geometry}")
        row = GEOMETRY_TABLE[geometry]
        if draw(st.booleans()):
            names = set(row.required) | draw(st.sets(st.sampled_from(row.allowed)))
        else:
            names = draw(st.sets(st.sampled_from(sorted(_values)), max_size=4))
        for name in sorted(names):
            lines.append(f"{name} = {draw(_values[name])}")
        if draw(st.booleans()):
            surrogate = draw(st.sampled_from([""] * 9 + ["\ud800"]))
            lines.append(f"provenance = {draw(_one_line)}{surrogate}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def case_path(tmp_path_factory):
    return tmp_path_factory.mktemp("argv-cases") / "cases.ini"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_case_files(), st.booleans())
def test_bott_report_on_any_case_file_ends_in_a_defined_way(case_path, text, as_json):
    case_path.write_text(text, encoding="utf-8", errors="surrogatepass")
    argv = ["bott-report", "--cases", str(case_path)] + (["--json"] if as_json else [])
    code, out, err = run(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    elif code == 1:
        assert out == "" and err.startswith("MISMATCH: ")
    else:
        assert err == ""
        if as_json:
            json.loads(out)
            rows = report_rows(load_registry(case_path))
            assert out == json.dumps(rows, indent=2) + "\n"
