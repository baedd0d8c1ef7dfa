"""No public code that nothing in the package or its benchmark uses.

Every public top-level function or class of ``src/bottcheck/*.py`` must
be referred to in the code of ``src/bottcheck`` or ``bench/`` as a name,
an attribute or an import, and every public method of such a class as
an attribute: a bare name, such as a parameter that shares the method's
name, is no use of a method.  A definition, a docstring or a string (as
in ``__all__``) is no use either.
``__init__.py`` is left out on both sides; it defines and imports
nothing.  Code that only tests call fails here, unless ``ALLOWED`` names
it with the reason it stays.

Blind spot: a method is matched by its name alone, not by its class, so
one that shares its name with a used method of another class counts as
used.  ``cli.BundleExpr.render``, which only a test called, passed here
because ``Poly.render`` and ``GradedClass.render`` are used; so did
``UniPoly.coeff`` and ``UniPoly.is_zero`` beside ``Poly``'s.  Private
and dunder methods, such as a ring type's operators, are not checked
at all.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "bottcheck").glob("*.py") if p.name != "__init__.py")
CORPUS = MODULES + sorted((ROOT / "bench").glob("*.py"))

ALLOWED = {
    "euler_jaczewski_chi": "chi(W, Omega_W(xH + yU)), checked by tests/test_rr.py",
    "with_twists": "fills a dp8 template's twists; ROADMAP item 8 keeps it",
    "serialize_registry": "the writer of case files, documented in the README",
}


def _definitions():
    """(qualified name, name, whether a method) of each public top-level
    function or class, and of each public method of such a class."""
    for path in MODULES:
        for node in ast.parse(path.read_text("utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            yield node.name, node.name, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name[0] != "_":
                        yield f"{node.name}.{item.name}", item.name, True


def _references(tree) -> list:
    """The (name, whether an attribute) pairs ``tree`` refers to: each
    ``Name`` id, ``Attribute`` attr and imported name, so a word in a
    string or a docstring, as in ``__all__``, is none."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, False))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, True))
        elif isinstance(node, ast.alias):
            out.append((node.name.rpartition(".")[2], False))
    return out


def _unused(definitions, references) -> list:
    """The qualified names of ``definitions`` that no pair of
    ``references`` refers to: a method through an attribute, anything
    else in any way."""
    names = {name for name, _ in references}
    attributes = {name for name, is_attribute in references if is_attribute}
    return [q for q, name, is_method in definitions
            if name not in (attributes if is_method else names)]


def test_every_public_definition_is_used_outside_the_tests():
    references = [ref for path in CORPUS
                  for ref in _references(ast.parse(path.read_text("utf-8")))]
    assert sorted(_unused(_definitions(), references)) == sorted(ALLOWED)


def test_a_bare_name_is_no_use_of_a_method():
    references = _references(ast.parse("def f(ambient):\n    return ambient.ring\n"))
    definitions = [("C.ambient", "ambient", True), ("C.ring", "ring", True),
                   ("ambient", "ambient", False), ("ring", "ring", False)]
    assert _unused(definitions, references) == ["C.ambient"]


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
    refs = {name for name, _ in _references(tree)}
    assert {"imported", "sub", "called", "obj", "attr", "__all__"} <= refs
    assert not refs & {"spoken", "listed", "quoted", "f", "alias"}
