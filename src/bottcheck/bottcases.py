"""Case registry and verdict engine for Bott-vanishing obstructions.

Each record names a weak Fano geometry and carries whatever numerics the
classification literature pins down; evaluation routes to the matching
obstruction evaluator and quantifies over the unknown Hodge number
h >= 0.  Parameters the literature leaves open stay symbolic in the
reported obstruction, so a record is never silently specialized.

``GEOMETRY_TABLE`` is the one place that says what each geometry is: one
``Geometry`` row per name, giving the evaluator of its theorem, the
numeric fields a record of it may set and those a complete record must
set, the numerics the geometry fixes, and the note its verdicts carry.
``_FIELDS`` says how each field is read, typed and checked; a record checks
itself against both when it is made (``_validate``).  Whether two routes
agree is decided by ``theorems.compare_thm*``, the same comparison the CLI
prints; an evaluator raises ``DualPathMismatch`` naming the record if not.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Callable, Optional, Tuple

from . import theorems
from .exact import (
    Number, Poly, check_digits, check_printable, parse_rational, quoted, rendered,
)
from .theorems import (
    NUMERICS_FIELDS,
    DivisorCaseInput,
    DualPathMismatch,
    PlaneBundleInput,
    ThreefoldNumerics,
    check_hodge_number,
    check_twists,
)
from .rr import HypothesisViolation

FAILS_BY_NEGATIVE_CHI = "FAILS_BY_NEGATIVE_CHI"
NEEDS_H0_CHECK = "NEEDS_H0_CHECK"
INCONCLUSIVE = "INCONCLUSIVE"


class RegistryError(ValueError):
    """A registry record or file is malformed; carries record id and
    field, both None when the fault lies in the file outside any record."""

    def __init__(self, record_id: Optional[str], field: Optional[str], message: str):
        self.record_id = record_id
        self.field = field
        if record_id is not None:
            message = f"record {quoted(record_id)}, field {quoted(field)}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class CaseRecord:
    """One record of a case registry.

    ``__init__`` takes the fields, by keyword or in order, as the one
    ``dataclass`` would write, fills ``__dict__`` in one update (not one
    ``object.__setattr__`` per field), and raises RegistryError (``_validate``)
    for all the reader refuses but a missing required field, so a template
    can be built.  ``fields``, ``replace`` (which re-checks), ``==``, ``hash``,
    ``repr`` and the refusal to assign are the dataclass's own."""

    id: str
    geometry: str
    h: Optional[Number] = None
    c13: Optional[Number] = None
    c12H: Optional[Number] = None
    c1H2: Optional[Number] = None
    c2H: Optional[Number] = None
    H3: Optional[Number] = None
    d: Optional[int] = None
    a: Optional[Tuple[int, int, int, int]] = None
    k: Optional[int] = None
    c1: Optional[int] = None
    c2: Optional[int] = None
    provenance: str = ""

    def __init__(self, id, geometry, h=None, c13=None, c12H=None, c1H2=None, c2H=None,
                 H3=None, d=None, a=None, k=None, c1=None, c2=None, provenance=""):
        self.__dict__.update({
            "id": id, "geometry": geometry, "h": h, "c13": c13, "c12H": c12H,
            "c1H2": c1H2, "c2H": c2H, "H3": H3, "d": d, "a": a, "k": k, "c1": c1,
            "c2": c2, "provenance": provenance,
        })
        _validate(self.__dict__)


@dataclass(frozen=True)
class Verdict:
    """An evaluated record, built as ``CaseRecord`` is, in one update.  The
    obstruction is the int or Fraction that its routes agreed on, or the
    ``Poly`` of a template, whose free fields stay symbols."""

    obstruction: Number | Poly
    conclusion: str
    note: str = ""

    def __init__(self, obstruction, conclusion, note=""):
        self.__dict__.update(
            {"obstruction": obstruction, "conclusion": conclusion, "note": note}
        )


def _conclude(obstruction) -> str:
    """The conclusion from the sign of ``obstruction`` for every h >= 0:
    a number's own sign, or a ``Poly``'s read from its terms."""
    const, terms = obstruction, ()
    if isinstance(obstruction, Poly):
        # The numerators are over a positive denominator, so they carry the
        # signs of the coefficients.  The terms are sorted, so the constant
        # term, the monomial (), comes first.
        const, terms = 0, obstruction._terms
        if terms and not terms[0][0]:
            const, terms = terms[0][1], terms[1:]
    if not terms:
        if const == 0:
            return NEEDS_H0_CHECK
        return FAILS_BY_NEGATIVE_CHI if const > 0 else INCONCLUSIVE
    # Positive for every h >= 0 iff h to the first power is the only other
    # term, its coefficient is nonnegative, and the constant is positive.
    if len(terms) == 1 and terms[0][0] == (("h", 1),):
        if terms[0][1] >= 0 and const > 0:
            return FAILS_BY_NEGATIVE_CHI
    return INCONCLUSIVE


def _agreed(c: CaseRecord, comparison: theorems.Comparison) -> dict:
    """The route values of ``comparison``, or DualPathMismatch naming the
    record and the first pair of routes that disagree."""
    if not all(comparison.checks.values()):
        raise DualPathMismatch(f"record {quoted(c.id)}: {comparison.mismatch}")
    return comparison.values


#: A record's thm1 fields, as a tuple in the order of NUMERICS_FIELDS.
_numerics_of = attrgetter(*NUMERICS_FIELDS)

#: The symbols d, k and sum_a, for a record that leaves them unset;
#: built once, since ``Poly.sym`` costs more than either thm1 route on
#: numbers.
_D, _K, _SUM_A = (Poly.sym(s) for s in ("d", "k", "sum_a"))


def _evaluate_thm1(c: CaseRecord, g: "Geometry") -> Verdict:
    d = _D if c.d is None else c.d
    fixed = {f: v(d) if callable(v) else v for f, v in g.fixed.items()}
    # The record's own value wins over the geometry's fixed numerics.
    n = ThreefoldNumerics(*[
        fixed.get(f) if v is None else v
        for f, v in zip(NUMERICS_FIELDS, _numerics_of(c))
    ])
    obstruction = _agreed(c, theorems.compare_thm1(n))["closed"]
    return Verdict(obstruction, _conclude(obstruction), g.note)


def _evaluate_thm2(c: CaseRecord, g: "Geometry") -> Verdict:
    if c.a is None:
        k = _K if c.k is None else c.k
        obstruction = 2 * _SUM_A + 4 * k
        note = "twists a0..a3 are user input (external classification tables)"
    elif c.k is None:
        obstruction = 2 * sum(c.a) + 4 * _K
        note = "k is user input"
    else:
        inp = DivisorCaseInput(c.a, c.k)
        obstruction = _agreed(c, theorems.compare_thm2(inp))["closed"]
        note = ""
    return Verdict(obstruction, _conclude(obstruction), note)


def _evaluate_thm3(c: CaseRecord, g: "Geometry") -> Verdict:
    _require(c, g)
    inp = PlaneBundleInput(c.c1, c.c2)
    obstruction = _agreed(c, theorems.compare_thm3(inp))["closed"]
    note = ""
    if obstruction == 0:
        note = "h^0 follow-up required; split approximants via thm3_h0_split"
    return Verdict(obstruction, _conclude(obstruction), note)


@dataclass(frozen=True)
class Geometry:
    """A row of ``GEOMETRY_TABLE``: the evaluator of the geometry's
    theorem, called as ``evaluate(record, row)``; the numeric fields a
    record may set, and those a complete one must set (``_require``; a
    template lacks one: thm1 and thm2 keep it as a symbol); the thm1
    numerics the geometry fixes, functions of ``d`` where they depend on
    it (called with the record's int d, or with the symbol d when the
    record leaves it unset), each overridden by a record's own value; and
    the note of a thm1 verdict."""

    evaluate: Callable
    allowed: tuple
    required: tuple = ()
    fixed: dict = field(default_factory=dict)
    note: str = ""


_THM2_ROW = Geometry(_evaluate_thm2, ("a", "k"), ("k",))

GEOMETRY_TABLE = {
    "delPezzoFib6": Geometry(
        _evaluate_thm1, NUMERICS_FIELDS,
        fixed={"c12H": 6, "c1H2": 0, "c2H": 6, "H3": 0},
        note="general fibre numerics of a degree-6 del Pezzo fibration",
    ),
    "delPezzoFib8-small": _THM2_ROW,
    "delPezzoFib8-divisorial": _THM2_ROW,
    "conicBundle": Geometry(
        _evaluate_thm1, NUMERICS_FIELDS + ("d",), ("d",),
        fixed={"c12H": lambda d: 12 - d, "c1H2": 2, "c2H": lambda d: d + 6, "H3": 0},
        note="conic-bundle numerics from the discriminant degree d",
    ),
    "p1BundleOverPlane": Geometry(_evaluate_thm3, ("c1", "c2"), ("c1", "c2")),
    "table8": Geometry(_evaluate_thm1, NUMERICS_FIELDS),
    "table9": Geometry(_evaluate_thm1, NUMERICS_FIELDS),
    "table75no1": Geometry(_evaluate_thm1, NUMERICS_FIELDS),
}

GEOMETRIES = tuple(GEOMETRY_TABLE)


def evaluate_case(c: CaseRecord) -> Verdict:
    """Route a case to its evaluator and classify the obstruction.

    Deterministic and independent of any registry context; parameters
    the record leaves unset appear as symbols in the obstruction.
    """
    row = GEOMETRY_TABLE[c.geometry]
    return row.evaluate(c, row)


def builtin_registry() -> tuple:
    """The shipped cases: one per obstruction clause whose numerics the
    classification literature pins down, plus user-completable templates."""
    return (
        CaseRecord(
            id="dp6",
            geometry="delPezzoFib6",
            provenance="degree-6 del Pezzo fibration over the line; "
            "h and c1^3 per family from Fukuoka's classification table",
        ),
        CaseRecord(
            id="dp8-div-i",
            geometry="delPezzoFib8-divisorial",
            k=0,
            provenance="degree-8 del Pezzo fibration, divisorial anticanonical "
            "contraction; Takeuchi (4.3.3) = Jahnke-Peternell-Radloff Table 7.1 "
            "No. 14; twists a0..a3 are user input",
        ),
        CaseRecord(
            id="dp8-div-ii",
            geometry="delPezzoFib8-divisorial",
            k=0,
            provenance="degree-8 del Pezzo fibration, divisorial anticanonical "
            "contraction; Takeuchi (4.3.6) = JPR Table 7.1 No. 15; twists are "
            "user input",
        ),
        CaseRecord(
            id="dp8-div-iii",
            geometry="delPezzoFib8-divisorial",
            k=-1,
            provenance="degree-8 del Pezzo fibration, divisorial anticanonical "
            "contraction; Takeuchi (4.3.7) = JPR Table 7.1 No. 9; twists are "
            "user input",
        ),
        CaseRecord(
            id="dp8-div-iv",
            geometry="delPezzoFib8-divisorial",
            k=2,
            provenance="degree-8 del Pezzo fibration, divisorial anticanonical "
            "contraction; Takeuchi Table 1 No. 11 = JPR Table 7.1 No. 12; "
            "twists are user input",
        ),
        CaseRecord(
            id="conic",
            geometry="conicBundle",
            provenance="conic bundle over the plane, discriminant degree d and "
            "per-family h, c1^3 are user input (JPR tables)",
        ),
        CaseRecord(
            id="p1bundle-33",
            geometry="p1BundleOverPlane",
            c1=3,
            c2=3,
            provenance="line-bundle-fibration cases with E nef but not ample, "
            "(c1, c2) = (3, 3) after twisting; Jahnke-Peternell Table A.3 "
            "No. 2-4",
        ),
        CaseRecord(
            id="table8-no1",
            geometry="table8",
            c13=4,
            c12H=6,
            c1H2=6,
            c2H=24,
            H3=6,
            provenance="Cutrone-Marshburn Table 8, No. 1",
        ),
        CaseRecord(
            id="table8-no2",
            geometry="table8",
            c13=2,
            c12H=4,
            c1H2=4,
            c2H=24,
            H3=4,
            provenance="Cutrone-Marshburn Table 8, No. 2",
        ),
        CaseRecord(
            id="table9",
            geometry="table9",
            c13=2,
            c12H=5,
            c1H2=10,
            c2H=45,
            H3=20,
            provenance="Cutrone-Marshburn Table 9",
        ),
        CaseRecord(
            id="table75-no1",
            geometry="table75no1",
            provenance="Jahnke-Peternell-Radloff Table 7.5 No. 1; evaluation "
            "path identical to the Table 8 cases, numerics are user input",
        ),
    )


# --- the fields of a record and the case-file format -----------------------


def _read_number(text: str):
    """An int, or else a rational through ``parse_rational``."""
    try:
        return int(text)
    except ValueError:
        return parse_rational(text)


def _read_int(text: str) -> int:
    return int(check_digits(text))


def _read_twists(text: str) -> tuple:
    return tuple(map(int, check_digits(text).split(",")))


def _check_discriminant_degree(d) -> None:
    """HypothesisViolation unless ``d``, the degree of a conic bundle's
    discriminant curve, is positive."""
    if d <= 0:
        raise HypothesisViolation("discriminant degree must be > 0")


def _check_int_twists(a) -> None:
    """ValueError unless the twists ``a`` are ints; then ``check_twists``."""
    if not all(type(x) is int for x in a):
        raise ValueError(f"the twists must be ints, got {a!r}")
    check_twists(a)


#: Each field after the id: how the reader reads its stripped text, the types
#: its value may have (None: text, which every geometry uses), its hypothesis.
_FIELDS = {
    "geometry": (str, None, None),
    **dict.fromkeys(NUMERICS_FIELDS, (_read_number, (int, Fraction), None)),
    "h": (_read_number, (int, Fraction), check_hodge_number),
    "d": (_read_int, (int,), _check_discriminant_degree),
    "a": (_read_twists, (tuple,), _check_int_twists),
    **dict.fromkeys(("k", "c1", "c2"), (_read_int, (int,), None)),
    "provenance": (str, None, None),
}
_CHECKED = [(name, types, check) for name, (_, types, check) in _FIELDS.items() if types]


def _validate(c: dict) -> None:
    """RegistryError for the first fault in the fields ``c`` of a record:
    an unknown geometry, then a field its geometry does not use, then a
    field of a type ``_FIELDS`` does not give it, or that breaks its
    hypothesis.  A missing required field is ``_require``'s."""
    record_id, geometry = c["id"], c["geometry"]
    row = GEOMETRY_TABLE.get(geometry)
    if row is None:
        raise RegistryError(record_id, "geometry", f"unknown geometry {quoted(geometry)}")
    set_fields = [spec for spec in _CHECKED if c[spec[0]] is not None]
    for name, _, _ in set_fields:
        if name not in row.allowed:
            raise RegistryError(record_id, name, f"not used by geometry {geometry!r}")
    for name, types, check in set_fields:
        value = c[name]
        try:
            if type(value) not in types:
                kinds = " or ".join(t.__name__ for t in types)
                raise ValueError(f"must be of type {kinds}, got {value!r}")
            if check is not None:
                check(value)
        except ValueError as exc:
            raise RegistryError(record_id, name, str(exc)) from None


def _require(c: CaseRecord, row: Geometry) -> None:
    """RegistryError for the first field that ``row`` requires and ``c`` lacks."""
    for name in row.required:
        if getattr(c, name) is None:
            raise RegistryError(c.id, name, "required for this geometry")


def _parse_record(section: str, items: dict) -> CaseRecord:
    kwargs = {"id": section}
    for key, value in items.items():
        spec = _FIELDS.get(key)
        if spec is None:
            raise RegistryError(section, key, "unknown field")
        value = value.strip()
        try:
            kwargs[key] = spec[0](value)
        except OverflowError as exc:
            raise RegistryError(section, key, str(exc)) from None
        except (ValueError, ZeroDivisionError) as exc:
            raise RegistryError(section, key, f"cannot parse {quoted(value)}") from exc
    if "geometry" not in kwargs:
        raise RegistryError(section, "geometry", "required for every record")
    record = CaseRecord(**kwargs)
    _require(record, GEOMETRY_TABLE[record.geometry])
    return record


# One stripped line of a case file: blank or a comment, a record header
# "[id]", or "field = value" / "field: value" split at the first "=" or
# ":".  The id is everything between the first "[" and the last "]".
_LINE = re.compile(
    r"(?:[#;].*)?|\[(?P<id>.+)\]|(?P<field>[^=:]*[^=:\s])\s*[=:]\s*(?P<value>.*)"
)


def _read_records(lines) -> dict:
    """``{id: {field: value}}`` from the lines of a case file, in file
    order; RegistryError for the first line that breaks the grammar of
    ``_LINE``, a field before the first header, or a repeated record or
    field."""
    records: dict = {}
    current = fields = None
    fullmatch = _LINE.fullmatch
    for lineno, text in enumerate(map(str.strip, lines), start=1):
        m = fullmatch(text)
        if m is None:
            raise RegistryError(
                None, None,
                f"line {lineno}: expected [id], field = value or a comment, "
                f"got {quoted(text)}",
            )
        record_id, field, value = m.groups()
        if record_id is not None:
            if record_id in records:
                raise RegistryError(record_id, "id", f"duplicate record on line {lineno}")
            records[record_id] = fields = {}
            current = record_id
        elif field is not None:
            if current is None:
                raise RegistryError(
                    None, None,
                    f"line {lineno}: field {quoted(field)} before the first [id]",
                )
            if field in fields:
                raise RegistryError(current, field, f"duplicate field on line {lineno}")
            fields[field] = value
    return records


def load_registry(path) -> list:
    """Parse a case file: one ``[id]`` header per record, then its
    ``field = value`` lines (see ``_read_records``)."""
    with open(path, "r", encoding="utf-8") as fh:
        records = _read_records(fh)
    return [_parse_record(record_id, items) for record_id, items in records.items()]


# --- reporting -------------------------------------------------------------


#: The keys of a report row, in order: the columns of the text report.
_COLUMNS = ("id", "geometry", "obstruction", "conclusion", "provenance")


def report_rows(cases) -> list:
    """One row per case, ordered by id, with the keys of ``_COLUMNS`` in
    order.  ValueError, naming the record, for an obstruction too long to
    print."""
    rows = []
    for rec in sorted(cases, key=attrgetter("id")):
        verdict = evaluate_case(rec)
        try:
            check_printable(verdict.obstruction, "the obstruction")
        except ValueError as exc:
            raise ValueError(f"record {rec.id!r}: {exc}") from None
        rows.append(
            {
                "id": rec.id,
                "geometry": rec.geometry,
                "obstruction": rendered(verdict.obstruction),
                "conclusion": verdict.conclusion,
                "provenance": rec.provenance,
            }
        )
    return rows


def report_text(cases) -> str:
    rows = report_rows(cases)
    if not rows:
        return ""
    headers = _COLUMNS
    widths = {
        h: max(len(h), *(len(r[h]) for r in rows)) for h in headers
    }
    lines = [
        "  ".join(h.ljust(widths[h]) for h in headers),
        "  ".join("-" * widths[h] for h in headers),
    ]
    for r in rows:
        lines.append("  ".join(r[h].ljust(widths[h]) for h in headers))
    return "\n".join(line.rstrip() for line in lines) + "\n"


# One row of ``json.dumps(rows, indent=2)``, its values left to fill.
_JSON_ROW = "  {\n" + ",\n".join(f'    "{key}": %s' for key in _COLUMNS) + "\n  }"


def report_json(cases) -> str:
    """``json.dumps(report_rows(cases), indent=2)`` and a newline: "[]"
    for no case, else "[", the rows at two spaces' indent with their keys
    at four, and "]", each on its own line, every string escaped to
    ASCII.  The rows fill ``_JSON_ROW`` through the same string encoder
    that ``json.dumps`` calls, since with ``indent`` set ``json.dumps``
    walks the rows in Python, at about four times the cost."""
    rows = report_rows(cases)
    if not rows:
        return "[]\n"
    encode = encode_basestring_ascii
    return "[\n" + ",\n".join(
        _JSON_ROW % tuple(map(encode, row.values())) for row in rows
    ) + "\n]\n"


def with_twists(record: CaseRecord, a) -> CaseRecord:
    """Convenience for completing a template record with user twists."""
    return replace(record, a=tuple(a))


__all__ = [
    "CaseRecord",
    "Verdict",
    "GEOMETRIES",
    "GEOMETRY_TABLE",
    "FAILS_BY_NEGATIVE_CHI",
    "NEEDS_H0_CHECK",
    "INCONCLUSIVE",
    "RegistryError",
    "evaluate_case",
    "builtin_registry",
    "load_registry",
    "report_rows",
    "report_text",
    "report_json",
    "with_twists",
]
