"""No public code that nothing in the package or its benchmark uses.

Every public top-level function or class of ``src/bottcheck/*.py``, and
every public method of such a class, must occur in the text of
``src/bottcheck`` or ``bench/`` somewhere other than a definition of its
name.  ``__init__.py`` is left out on both sides, because a re-export is
not a use.  Code that only tests call fails here, unless ``ALLOWED``
names it with the reason it stays.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "bottcheck").glob("*.py") if p.name != "__init__.py")
CORPUS = MODULES + sorted((ROOT / "bench").glob("*.py"))

ALLOWED = {
    "UniPoly.compose": "the independent S^(b-1) reference of tests/test_thm3_form.py",
    "euler_jaczewski_chi": "chi(W, Omega_W(xH + yU)), checked by tests/test_rr.py",
}


def _definitions():
    """(qualified name, name) of each public top-level function or class,
    and of each public method of such a class."""
    for path in MODULES:
        for node in ast.parse(path.read_text("utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name[0] != "_":
                        yield f"{node.name}.{item.name}", item.name


def _unused(names) -> list:
    """The names that occur in the corpus only where something of that name
    is defined."""
    occurs, defined = Counter(), Counter()
    for path in CORPUS:
        text = path.read_text("utf-8")
        occurs.update(re.findall(r"[A-Za-z_]\w*", text))
        defined.update(
            node.name for node in ast.walk(ast.parse(text))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        )
    return [name for name in names if occurs[name] <= defined[name]]


def test_every_public_definition_is_used_outside_the_tests():
    definitions = dict(_definitions())
    unused = set(_unused(definitions.values()))
    assert sorted(q for q, name in definitions.items() if name in unused) == sorted(ALLOWED)
