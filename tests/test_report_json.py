"""The report's JSON writer, the record type it reads, and the one
hypothesis that a conic bundle's record carries.

``report_json`` fills a row template through ``json``'s own string
encoder instead of calling ``json.dumps``; ``json.dumps`` of the same
rows stays its reference.  ``CaseRecord`` has its own ``__init__`` and
keeps the rest of its dataclass contract.  A discriminant degree d <= 0
is refused by the reader and by the record itself when it is made.
"""

import dataclasses
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bottcheck import cli
from bottcheck.bottcases import (
    CaseRecord,
    RegistryError,
    builtin_registry,
    load_registry,
    report_json,
    report_rows,
    with_twists,
)

# Text that every JSON escape rule meets: quotes, backslashes, control
# characters, non-ASCII, astral characters, U+2028/U+2029 and lone
# surrogates, which only an ASCII encoder can write.
_texts = st.text(
    st.one_of(
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x85\u2028\u2029\ufeffé\U0001f600'
                        '\ud800\udbff\udc00\udfff'),
        st.characters(),
    ),
    max_size=12,
)
_records = st.one_of(
    st.builds(lambda i, p, h, c13: CaseRecord(id=i, geometry="table8", h=h, c13=c13,
                                              provenance=p),
              _texts, _texts, st.none() | st.integers(0, 9), st.none() | st.integers(-9, 9)),
    st.builds(lambda i, p, k: CaseRecord(id=i, geometry="delPezzoFib8-small",
                                         a=(0, 0, 1, 2), k=k, provenance=p),
              _texts, _texts, st.integers(-5, 5)),
    st.builds(lambda i, p, d: CaseRecord(id=i, geometry="conicBundle", d=d, provenance=p),
              _texts, _texts, st.integers(1, 12)),
    st.builds(lambda i, p, c1, c2: CaseRecord(id=i, geometry="p1BundleOverPlane",
                                              c1=c1, c2=c2, provenance=p),
              _texts, _texts, st.integers(-9, 9), st.integers(-9, 9)),
)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_records, max_size=5))
def test_the_json_writer_equals_json_dumps(cases):
    assert report_json(cases) == json.dumps(report_rows(cases), indent=2) + "\n"


def test_the_json_writer_on_no_records_and_the_builtin_registry():
    assert report_json([]) == "[]\n" == json.dumps([], indent=2) + "\n"
    cases = builtin_registry()
    assert report_json(cases) == json.dumps(report_rows(cases), indent=2) + "\n"


# --- CaseRecord's dataclass contract ------------------------------------------


def test_case_record_keeps_its_dataclass_contract():
    names = [f.name for f in dataclasses.fields(CaseRecord)]
    assert names == ["id", "geometry", "h", "c13", "c12H", "c1H2", "c2H", "H3", "d",
                     "a", "k", "c1", "c2", "provenance"]
    rec = CaseRecord(id="r", geometry="table8", h=3, c13=4)
    assert rec == CaseRecord("r", "table8", 3, 4)
    assert hash(rec) == hash(CaseRecord("r", "table8", 3, 4))
    assert rec != CaseRecord(id="r", geometry="table8", h=3)
    assert repr(rec) == (
        "CaseRecord(id='r', geometry='table8', h=3, c13=4, c12H=None, c1H2=None, "
        "c2H=None, H3=None, d=None, a=None, k=None, c1=None, c2=None, provenance='')"
    )
    assert dataclasses.replace(rec, h=5) == CaseRecord(id="r", geometry="table8", h=5, c13=4)
    dp8 = CaseRecord(id="x", geometry="delPezzoFib8-small", k=0)
    assert with_twists(dp8, [0, 0, 1, 2]).a == (0, 0, 1, 2)
    assert dataclasses.asdict(rec)["c13"] == 4
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.h = 4
    with pytest.raises(dataclasses.FrozenInstanceError):
        del rec.h


def test_case_record_refuses_an_unknown_or_missing_field():
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        CaseRecord(id="r", geometry="table8", bogus=1)
    with pytest.raises(TypeError, match="missing 1 required positional argument: 'id'"):
        CaseRecord(geometry="table8")
    with pytest.raises(TypeError, match="'geometry'"):
        CaseRecord(id="r")


# --- d > 0 --------------------------------------------------------------------

D_MESSAGE = "record 'c', field 'd': discriminant degree must be > 0"


@pytest.mark.parametrize("d", [0, -1, -12])
def test_the_reader_refuses_a_discriminant_degree_below_1(tmp_path, d):
    path = tmp_path / "cases.ini"
    path.write_text(f"[c]\ngeometry = conicBundle\nd = {d}\n", encoding="utf-8")
    with pytest.raises(RegistryError) as err:
        load_registry(path)
    assert str(err.value) == D_MESSAGE
    assert (err.value.record_id, err.value.field) == ("c", "d")
    out, errs = io.StringIO(), io.StringIO()
    code = cli.run(["bott-report", "--cases", str(path), "--json"], out=out, err=errs)
    assert (code, out.getvalue(), errs.getvalue()) == (2, "", f"error: {D_MESSAGE}\n")


@pytest.mark.parametrize("d", [0, -3])
def test_the_record_refuses_it_when_it_is_made(d):
    with pytest.raises(RegistryError) as err:
        CaseRecord(id="c", geometry="conicBundle", d=d)
    assert str(err.value) == D_MESSAGE


def test_a_discriminant_degree_of_1_reads(tmp_path):
    rec = CaseRecord(id="c", geometry="conicBundle", d=1)
    path = tmp_path / "cases.ini"
    path.write_text("[c]\ngeometry = conicBundle\nd = 1\n", encoding="utf-8")
    assert load_registry(path) == [rec]
