"""``exact.immutable`` records, on the classes that write their own
``__init__`` for it: the fields in the order of the annotations, a
``repr`` that names them, ``==`` and ``hash`` on the fields only, the
refusal to assign or delete, and Python's own text for a missing or
unknown argument.  ``exact.replace`` goes through ``__init__``.
"""

import pytest

from bottcheck.bottcases import Geometry
from bottcheck.cli import BundleExpr
from bottcheck.chern import SymPowerPolys
from bottcheck.exact import Poly, QuotientRule, replace
from bottcheck.theorems import PlaneBundleInput, QPolys

X, Y = Poly.sym("x"), Poly.sym("y")

# (record, an equal one built by keyword, one that differs, the fields,
# the repr, the last required field, which a call given only the required
# fields before it misses)
CASES = {
    "PlaneBundleInput": (
        PlaneBundleInput(3, 2, (1, 2)), PlaneBundleInput(c1=3, c2=2, split=(1, 2)),
        PlaneBundleInput(3, 2), ("c1", "c2", "split"),
        "PlaneBundleInput(c1=3, c2=2, split=(1, 2))", "c2",
    ),
    "QPolys": (
        QPolys(1, 2, 3, 0), QPolys(Q1=1, Q2=2, Q3=3, Q=0), QPolys(1, 2, 3, 1),
        ("Q1", "Q2", "Q3", "Q"), "QPolys(Q1=1, Q2=2, Q3=3, Q=0)", "Q",
    ),
    "SymPowerPolys": (
        SymPowerPolys(1, 2, 3, 4), SymPowerPolys(C1=1, C2=2, A1=3, A2=4),
        SymPowerPolys(1, 2, 4, 3), ("C1", "C2", "A1", "A2"),
        "SymPowerPolys(C1=1, C2=2, A1=3, A2=4)", "A2",
    ),
    "BundleExpr": (
        BundleExpr("P2", None, (3, 3)), BundleExpr(base="P2", c1c2=(3, 3)),
        BundleExpr("P2", (3, 3)), ("base", "twists", "c1c2"),
        "BundleExpr(base='P2', twists=None, c1c2=(3, 3))", "base",
    ),
    "QuotientRule": (
        QuotientRule(((X * X, Y),)), QuotientRule(relations=((X ** 2, Y),)),
        QuotientRule(((X * X, 0),)), ("relations",),
        "QuotientRule(relations=(((('x', 2),), (((('y', 1),), 1),)),))", "relations",
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_a_record_with_its_own_init_keeps_the_contract(name):
    rec, same, other, fields, text, last = CASES[name]
    cls = type(rec)
    assert cls._fields == fields and list(vars(rec)) == list(fields)
    assert repr(rec) == text
    assert rec == same and hash(rec) == hash(same)
    assert rec != other and not rec == other
    assert rec.__eq__(fields) is NotImplemented
    if name != "QuotientRule":  # it keeps its relations in another form
        assert replace(rec) == rec and replace(rec) is not rec
    for field in fields:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
            setattr(rec, field, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
            delattr(rec, field)
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert vars(rec) == vars(same)
    # Python's own text, as for any function.
    required = [f for f in fields if f not in ("split", "twists", "c1c2")]
    args = [getattr(rec, f) for f in required if f != last]
    with pytest.raises(TypeError, match=f"missing 1 required positional argument: '{last}'$"):
        cls(*args)
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'$"):
        replace(rec, bogus=1)


def test_plane_bundle_input_checks_itself_and_replace_checks_again():
    with pytest.raises(ValueError, match=r"^c1 and c2 must be ints, got \(3, '2'\)$"):
        PlaneBundleInput(3, "2")
    with pytest.raises(ValueError, match=r"^split pair \(1, 2\) is inconsistent with "
                                         r"\(c1, c2\) = \(3, 3\)$"):
        replace(PlaneBundleInput.from_split(1, 2), c2=3)


def test_a_geometry_row_keeps_the_contract_and_shares_no_fixed_map():
    row = Geometry(len, ("k",))
    assert Geometry._fields == ("evaluate", "allowed", "required", "fixed", "note")
    assert repr(row) == ("Geometry(evaluate=<built-in function len>, allowed=('k',), "
                         "required=(), fixed={}, note='')")
    assert row == Geometry(evaluate=len, allowed=("k",), fixed={})
    assert row.fixed is not Geometry(len, ("k",)).fixed
    with pytest.raises(AttributeError):
        row.note = "x"
    with pytest.raises(TypeError, match="missing 1 required positional argument: 'allowed'$"):
        Geometry(len)
