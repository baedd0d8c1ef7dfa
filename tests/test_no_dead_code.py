"""No public code that nothing in the package or its benchmark uses.

Every public top-level function or class of ``src/bottcheck/*.py``, and
every public method of such a class, must be referred to in the code of
``src/bottcheck`` or ``bench/``: as a name, an attribute or an import.
A definition, a docstring or a string (as in ``__all__``) is no use.
``__init__.py`` is left out on both sides; it defines and imports
nothing.  Code that only tests call fails here, unless ``ALLOWED`` names
it with the reason it stays.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "bottcheck").glob("*.py") if p.name != "__init__.py")
CORPUS = MODULES + sorted((ROOT / "bench").glob("*.py"))

ALLOWED = {
    "UniPoly.compose": "the independent S^(b-1) reference of tests/test_thm3_form.py",
    "euler_jaczewski_chi": "chi(W, Omega_W(xH + yU)), checked by tests/test_rr.py",
    "with_twists": "fills a dp8 template's twists; ROADMAP item 8 keeps it",
    "serialize_registry": "the writer of case files, documented in the README",
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


def _references(tree) -> list:
    """The names ``tree`` refers to: each ``Name`` id, ``Attribute`` attr
    and imported name, so a word in a string or a docstring, as in
    ``__all__``, is none."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append(node.id)
        elif isinstance(node, ast.Attribute):
            out.append(node.attr)
        elif isinstance(node, ast.alias):
            out.append(node.name.rpartition(".")[2])
    return out


def _unused(names) -> list:
    """The names that nothing in the corpus refers to."""
    refs = Counter()
    for path in CORPUS:
        refs.update(_references(ast.parse(path.read_text("utf-8"))))
    return [name for name in names if not refs[name]]


def test_every_public_definition_is_used_outside_the_tests():
    definitions = dict(_definitions())
    unused = set(_unused(definitions.values()))
    assert sorted(q for q, name in definitions.items() if name in unused) == sorted(ALLOWED)


def test_a_word_in_a_docstring_or_a_string_is_no_reference():
    tree = ast.parse(
        '"""Mentions spoken."""\n'
        '__all__ = ["listed"]\n'
        'from .mod import imported as alias\n'
        'import pkg.sub\n'
        'def f():\n'
        '    """Names quoted."""\n'
        '    return called(obj.attr)\n'
    )
    refs = set(_references(tree))
    assert {"imported", "sub", "called", "obj", "attr", "__all__"} <= refs
    assert not refs & {"spoken", "listed", "quoted", "f", "alias"}
