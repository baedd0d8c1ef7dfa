"""Chow rings of the two projective-bundle geometries.

Each ring is stated once, as an ``exact.QuotientRule`` over its own
parameters: the Chow ring of P(E) is that of the base with one more
generator U, the class of O(1), and the Grothendieck relation of E
(Fulton, Intersection Theory, Rem. 3.2.4).  H is the class of a line or
point of the base, pulled back.

* ``LINE_RULE``: P(E) over the line, with E a split rank-4 bundle with
  twists (a0..a3) and s1 = sum a_i.  Relations H^2 = 0 and
  U^4 = s1 H U^3; the normal form is the box H^i U^j with i <= 1,
  j <= 3, and the degree map is normalized by deg(H U^3) = 1.

* ``PLANE_RULE``: P(E) over the plane, with E of rank 2 and Chern
  numbers (c1, c2).  Relations H^3 = 0 and U^2 = c1 H U - c2 H^2; the
  box H^i U^j with i <= 2, j <= 1, normalized by deg(H^2 U) = 1.

The parameters (s1, or c1 and c2) are variables of the rule, like any
other coefficient, so ``exact.Poly`` under a rule is the ring with its
parameters symbolic, and the degree map is the coefficient of the top
monomial, a polynomial in them.  Each rule is a rewriting system with a
unique normal form.  It terminates: every rewrite replaces a monomial by
smaller ones in the lexicographic order with U first (U^4 > s1 H U^3,
U^2 > c1 H U and U^2 > c2 H^2, and H^2 or H^3 by nothing), and that
order is a well-order.  Its normal form is unique: the leading
monomials, H^2 and U^4 on the line, H^3 and U^2 on the plane, are
coprime, so every critical pair reduces to one form (Buchberger's first
criterion).  The normal form is the box above, H^i U^j with
(i, j) <= ``top``.

``LineBase4`` and ``PlaneBase2`` are the rings at integer parameters.
A rule's right sides are split into (H, U) monomials and parameter
powers once per rule value (``_skeletons``, cached on the hashable
``QuotientRule``); each ring then only multiplies its ints into them
when it is built, and sets its fields and ``relations``, the relations
on (i, j) monomials for H^i U^j, in one ``__dict__`` update.
``GradedClass`` keeps the stored form of ``exact._Sparse`` on those
monomials; its constructor and every product reduce through the
ambient's relations (``_reduce``, ``QuotientRule.reduce`` on (i, j)
monomials).  Sums of reduced classes
are reduced already, so they only drop zeros and sort.  Negations and
scalar multiples of reduced classes skip even that, as ``exact._Sparse``
says: they keep every monomial, so the class stays reduced, and they
keep the stored order.  ``unit``, ``H_class`` and ``U_class`` are in
stored form as written.  The parameters must be integers, so that the
relations and the classes stay on integer numerators.

The sign convention of the rank relation is pinned by the pushforward
consistency checks in the test suite: the intrinsic Riemann-Roch value
of y*U on PlaneBase2 must agree with the Euler characteristic of the
y-th symmetric power of E on the base.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Mapping, Tuple

from .exact import Number, Poly, QuotientRule, _Sparse, common_denominator, divided

Monomial = Tuple[int, int]  # (power of H, power of U)


def _line_rule() -> QuotientRule:
    s1, H, U = (Poly.sym(s) for s in ("s1", "H", "U"))
    return QuotientRule(((H ** 2, 0), (U ** 4, s1 * H * U ** 3)))


def _plane_rule() -> QuotientRule:
    c1, c2, H, U = (Poly.sym(s) for s in ("c1", "c2", "H", "U"))
    return QuotientRule(((H ** 3, 0), (U ** 2, c1 * H * U - c2 * H * H)))


#: The ring over the line, s1 symbolic: H^2 = 0 and U^4 = s1 H U^3.
LINE_RULE = _line_rule()

#: The ring over the plane, c1 and c2 symbolic: H^3 = 0 and
#: U^2 = c1 H U - c2 H^2.
PLANE_RULE = _plane_rule()


@cache
def _skeletons(rule: QuotientRule) -> tuple:
    """The relations of ``rule`` split into (H, U) monomials, once per
    rule value: a triple (i, j, right side) for each left side H^i U^j,
    the right side as (((i', j'), int, parameter powers), ...) with the
    powers as ((parameter, exponent), ...)."""
    out = []
    for lhs, rhs in rule.relations:
        terms = []
        for m, c in rhs:
            exps = dict(m)
            terms.append(((exps.pop("H", 0), exps.pop("U", 0)), c, tuple(exps.items())))
        exps = dict(lhs)
        out.append((exps.get("H", 0), exps.get("U", 0), tuple(terms)))
    return tuple(out)


def _at(rule: QuotientRule, values: Mapping[str, int]) -> tuple:
    """The relations of ``rule`` with the ints ``values`` put in for its
    parameters, on (i, j) monomials: a triple (i, j, right side) for each
    left side H^i U^j, the right side as ((monomial, int), ...) with no
    zero coefficient."""
    out = []
    for i, j, rhs in _skeletons(rule):
        terms: dict = {}
        for m, c, powers in rhs:
            for v, e in powers:
                c *= values[v] ** e
            terms[m] = terms[m] + c if m in terms else c
        out.append((i, j, tuple([t for t in terms.items() if t[1]])))
    return tuple(out)


def _integer(name: str, value) -> int:
    """``value`` as an int; the ring relations multiply by it, and the
    classes keep integer numerators."""
    if isinstance(value, (int, Fraction)) and value.denominator == 1:
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class LineBase4:
    twists: Tuple[int, int, int, int]

    top = (1, 3)

    def __init__(self, twists):
        twists = tuple(_integer("twist", a) for a in twists)
        # LINE_RULE at s1 = the sum of the twists; not a field.
        self.__dict__.update(
            {"twists": twists, "relations": _at(LINE_RULE, {"s1": sum(twists)})}
        )


@dataclass(frozen=True)
class PlaneBase2:
    c1: int
    c2: int

    top = (2, 1)

    def __init__(self, c1, c2):
        c1, c2 = _integer("c1", c1), _integer("c2", c2)
        # PLANE_RULE at this c1 and c2; not a field.
        self.__dict__.update(
            {"c1": c1, "c2": c2, "relations": _at(PLANE_RULE, {"c1": c1, "c2": c2})}
        )


Ambient = LineBase4 | PlaneBase2


def _reduce(relations: tuple, terms) -> dict:
    """The normal form of (monomial, int) ``terms`` under an ambient's
    ``relations``, as a dict: each term divisible by a left side is
    rewritten, trying the relations in order, until none is."""
    out: dict = {}
    pending = list(terms)
    while pending:
        m, c = pending.pop()
        i, j = m
        for a, b, rhs in relations:
            if i >= a and j >= b:
                i, j = i - a, j - b
                for (di, dj), d in rhs:
                    pending.append(((i + di, j + dj), c * d))
                break
        else:
            out[m] = out[m] + c if m in out else c
    return out


class GradedClass(_Sparse):
    """A fully reduced element of one of the two ambient Chow rings.

    ``terms`` holds (basis monomial, int numerator) pairs over the one
    denominator ``den``, as ``exact._Sparse`` keeps them; ``ring`` is the
    ambient (a ``LineBase4`` or a ``PlaneBase2``).  ``coeffs`` gives the
    same terms with Fraction coefficients; ``coeff`` and ``degree`` give
    one coefficient as an int when it is whole and a Fraction otherwise.
    """

    __slots__ = ()

    ONE = (0, 0)
    NAMES = ("H", "U")
    MISMATCH = "ambient ring mismatch"

    def __init__(self, ambient: Ambient, raw: Mapping[Monomial, Fraction] = ()):
        raw = dict(raw)
        nums, den = common_denominator(raw.values())
        self._store(_reduce(ambient.relations, zip(raw, nums)).items(), den, ambient)

    def _product(self, xs, ys) -> dict:
        terms: dict = {}
        for (i1, j1), a in xs:
            for (i2, j2), b in ys:
                m = (i1 + i2, j1 + j2)
                terms[m] = terms[m] + a * b if m in terms else a * b
        return _reduce(self.ring.relations, terms.items())

    def coeff(self, i: int, j: int) -> Number:
        """The coefficient of H^i U^j, 0 when the monomial is absent."""
        for m, c in self._terms:
            if m == (i, j):
                return divided(c, self.den)
        return 0

    def degree(self) -> Number:
        """Top intersection number: the coefficient of the top monomial."""
        return self.coeff(*self.ring.top)


def unit(ambient: Ambient) -> GradedClass:
    return GradedClass._canonical((((0, 0), 1),), 1, ambient)


def H_class(ambient: Ambient) -> GradedClass:
    return GradedClass._canonical((((1, 0), 1),), 1, ambient)


def U_class(ambient: Ambient) -> GradedClass:
    return GradedClass._canonical((((0, 1), 1),), 1, ambient)
