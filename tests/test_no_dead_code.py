"""No code that nothing in the package or its benchmark uses.

Every public top-level function or class of ``src/bottcheck/*.py`` must
be referred to in the code of ``src/bottcheck`` or ``bench/`` as a name
that is read, an attribute or an import, and every public method of
such a class as an attribute: a bare name, such as a parameter that
shares the method's name, is no use of a method.  A definition, an
assignment to the name, a docstring or a string (as in ``__all__``) is
no use either.  ``__init__.py`` is left out on both sides; it defines
and imports nothing.  Code that only tests call fails here, unless
``ALLOWED`` names it with the reason it stays.  Every private top-level
function, class and assigned name (dunders aside) must be referred to
in the same code, with no exception.

Blind spot: a method is matched by its name alone, not by its class, so
one that shares its name with a used method of another class counts as
used.  ``cli.BundleExpr.render``, which only a test called, passed here
because ``Poly.render`` and ``GradedClass.render`` are used; so did
``UniPoly.coeff`` and ``UniPoly.is_zero`` beside ``Poly``'s.  Private
and dunder methods, such as a ring type's operators, are not checked
at all, and a private name counts as used wherever a name or an
attribute of that spelling is read, in its own module or another.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "bottcheck").glob("*.py") if p.name != "__init__.py")
CORPUS = MODULES + sorted((ROOT / "bench").glob("*.py"))

ALLOWED = {
    "euler_jaczewski_chi": "chi(W, Omega_W(xH + yU)), checked by tests/test_rr.py",
    "with_twists": "fills a dp8 template's twists; the ROADMAP's removal item keeps it",
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


def _private_names(tree):
    """Each private top-level function, class and assigned name of the
    module ``tree``, dunders aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (n for n in names if n[0] == "_" and not n[:2] == n[-2:] == "__")


def _private_definitions():
    """``_private_names`` of every module, in the form ``_definitions``
    yields."""
    for path in MODULES:
        for name in _private_names(ast.parse(path.read_text("utf-8"))):
            yield name, name, False


def _references(tree) -> list:
    """The (name, whether an attribute) pairs ``tree`` refers to: each
    ``Name`` id that is read, ``Attribute`` attr and imported name, so a
    name assigned to, or a word in a string or a docstring, as in
    ``__all__``, is none."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
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


def _corpus_references() -> list:
    return [ref for path in CORPUS
            for ref in _references(ast.parse(path.read_text("utf-8")))]


def test_every_public_definition_is_used_outside_the_tests():
    assert sorted(_unused(_definitions(), _corpus_references())) == sorted(ALLOWED)


def test_every_private_top_level_name_is_used_outside_the_tests():
    assert _unused(_private_definitions(), _corpus_references()) == []


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
        '    assigned = 1\n'
        '    return called(obj.attr)\n'
    )
    refs = {name for name, _ in _references(tree)}
    assert {"imported", "sub", "called", "obj", "attr"} <= refs
    assert not refs & {"spoken", "listed", "quoted", "f", "alias", "assigned", "__all__"}


def test_private_names_are_top_level_definitions_and_assignments():
    tree = ast.parse(
        "_a, (_b, public) = 1, (2, 3)\n"
        "_c: int = 4\n"
        "def _f():\n"
        "    _inner = 5\n"
        "class _C:\n"
        "    def _method(self): pass\n"
        "__all__ = []\n"
        "def g(): pass\n"
    )
    assert list(_private_names(tree)) == ["_a", "_b", "_c", "_f", "_C"]
