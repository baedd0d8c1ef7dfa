"""Chow rings of the two projective-bundle geometries.

Two ambient rings are supported:

* ``LineBase4``: P(E) over the line with E a split rank-4 bundle with
  twists (a0..a3).  Relations H^2 = 0 and U^4 = (sum a_i) H U^3; the
  canonical basis is H^i U^j with i <= 1, j <= 3, and the degree map is
  normalized by deg(H U^3) = 1.

* ``PlaneBase2``: P(E) over the plane with E of rank 2 and Chern
  numbers (c1, c2).  Relations H^3 = 0 and U^2 = c1 H U - c2 H^2; basis
  H^i U^j with i <= 2, j <= 1, normalized by deg(H^2 U) = 1.

In both rings the basis is the box H^i U^j with (i, j) <= ``top``.  A
class only ever holds basis terms, and the relations are applied in one
place: the product of two such classes (``_product``).  Sums, negations,
scalar multiples and graded parts of reduced classes are reduced already,
so they only drop zeros.  One step of the relations is enough because a
product of two basis monomials overshoots the basis by at most one step:
on the plane it carries at most U^2, and rewriting H^i U^2 as
c1 H^(i+1) U - c2 H^(i+2) lands in the basis or in H^3 = 0; on the line
it carries at most U^6, and rewriting U^4 as s1 H U^3 turns every
overshoot except U^4 itself into a multiple of H^2 = 0.  The public
constructor accepts any monomials and reduces H^i U^j as the basis term
H^i U^min(j, top_j) times U, one factor at a time, through that product.

``PLANE_RULE`` states the plane relations once more, over symbolic c1
and c2, as an ``exact.QuotientRule`` for ``exact.Poly``: H^3 = 0 and
U^2 = c1 H U - c2 H^2.  c1 and c2 are then variables of the ring, like
any other coefficient, so the argument above holds unchanged: a product
of two polynomials in normal form (H-degree <= 2, U-degree <= 1 in each
term) carries at most U^2, and one rewrite of U^2, followed by H^3 = 0,
reaches the normal form.  The rewriting system terminates (each rewrite
lowers the U-degree) and its normal form is unique, because the leading
monomials H^3 and U^2 are coprime.  The degree map is the coefficient of
H^2 U, a polynomial in the remaining variables.

A class keeps the stored form of ``exact._Sparse``, with (i, j) for
H^i U^j as its monomials.  The ring parameters (c1, c2, the twists) must
be integers, so that ``_product`` stays on integer numerators.

The sign convention of the rank relation is pinned by the pushforward
consistency checks in the test suite: the intrinsic Riemann-Roch value
of y*U on PlaneBase2 must agree with the Euler characteristic of the
y-th symmetric power of E on the base.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Tuple

from .exact import Poly, QuotientRule, _Sparse, _accumulate, common_denominator

Monomial = Tuple[int, int]  # (power of H, power of U)


def _integer(name: str, value) -> int:
    """``value`` as an int; the ring relations multiply by it, and the
    classes keep integer numerators."""
    if isinstance(value, (int, Fraction)) and value.denominator == 1:
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class LineBase4:
    twists: Tuple[int, int, int, int]

    def __post_init__(self):
        object.__setattr__(
            self, "twists", tuple(_integer("twist", a) for a in self.twists)
        )

    @property
    def top(self) -> Monomial:
        return (1, 3)


@dataclass(frozen=True)
class PlaneBase2:
    c1: int
    c2: int

    def __post_init__(self):
        object.__setattr__(self, "c1", _integer("c1", self.c1))
        object.__setattr__(self, "c2", _integer("c2", self.c2))

    @property
    def top(self) -> Monomial:
        return (2, 1)


Ambient = LineBase4 | PlaneBase2


def _plane_rule() -> QuotientRule:
    c1, c2, H, U = (Poly.sym(s) for s in ("c1", "c2", "H", "U"))
    return QuotientRule(((H ** 3, 0), (U ** 2, c1 * H * U - c2 * H * H)))


#: The relation of ``_product``'s plane branch over symbolic c1, c2, for
#: ``exact.Poly``: H^3 = 0 and H^i U^2 = c1 H^(i+1) U - c2 H^(i+2).
PLANE_RULE = _plane_rule()


def _product(ambient: Ambient, xs, ys) -> dict:
    """Product of two lists of (basis monomial, int) terms, as a dict of
    basis terms with int coefficients.

    Multiplies term by term, drops what carries H^(top_i + 1), then
    rewrites the overshoot in U by one step of the ring's relation.
    """
    top_i, top_j = ambient.top
    out: dict = {}
    for (i1, j1), a in xs:
        for (i2, j2), b in ys:
            i = i1 + i2
            if i > top_i:
                continue
            m = (i, j1 + j2)
            c = a * b
            out[m] = out[m] + c if m in out else c
    over = [m for m in out if m[1] > top_j]
    if isinstance(ambient, PlaneBase2):
        # H^i U^2 = c1 H^(i+1) U - c2 H^(i+2), and H^3 = 0: PLANE_RULE,
        # with c1 and c2 as numbers.
        c1, c2 = ambient.c1, ambient.c2
        for m in over:
            c, i = out.pop(m), m[0]
            if c1 and i + 1 <= top_i:
                _accumulate(out, (i + 1, 1), c * c1)
            if c2 and i + 2 <= top_i:
                _accumulate(out, (i + 2, 0), c * -c2)
    else:
        # U^4 = s1 H U^3, and H^2 = 0, so every other overshoot vanishes.
        s1 = sum(ambient.twists)
        for m in over:
            c = out.pop(m)
            if s1 and m == (0, 4):
                _accumulate(out, (1, 3), c * s1)
    return out


class GradedClass(_Sparse):
    """A fully reduced element of one of the two ambient Chow rings.

    ``terms`` holds (basis monomial, int numerator) pairs over the one
    denominator ``den``, as ``exact._Sparse`` keeps them; ``ambient`` is
    the ring.  ``coeffs`` gives the same terms with Fraction coefficients.
    """

    __slots__ = ()

    ONE = (0, 0)
    NAMES = ("H", "U")
    MISMATCH = "ambient ring mismatch"

    def __init__(self, ambient: Ambient, raw: Mapping[Monomial, Fraction] = ()):
        raw = dict(raw)
        nums, den = common_denominator(raw.values())
        top_i, top_j = ambient.top
        u = (((0, 1), 1),)
        terms: dict = {}
        for (i, j), c in zip(raw, nums):
            if c == 0 or i > top_i:
                continue
            part = {(i, min(j, top_j)): c}
            for _ in range(j - top_j):
                part = _product(ambient, part.items(), u)
            for m, c in part.items():
                _accumulate(terms, m, c)
        self._store(terms.items(), den, ambient)

    @property
    def ambient(self) -> Ambient:
        return self.ring

    def _product(self, xs, ys) -> dict:
        return _product(self.ring, xs, ys)

    def coeff(self, i: int, j: int) -> Fraction:
        for m, c in self._terms:
            if m == (i, j):
                return Fraction(c, self.den)
        return Fraction(0)

    def graded_part(self, k: int) -> "GradedClass":
        return GradedClass._new(
            [(m, c) for m, c in self._terms if m[0] + m[1] == k], self.den, self.ring
        )

    def degree(self) -> Fraction:
        """Top intersection number: the coefficient of the top monomial."""
        return self.coeff(*self.ring.top)


def unit(ambient: Ambient) -> GradedClass:
    return GradedClass._new((((0, 0), 1),), 1, ambient)


def H_class(ambient: Ambient) -> GradedClass:
    return GradedClass._new((((1, 0), 1),), 1, ambient)


def U_class(ambient: Ambient) -> GradedClass:
    return GradedClass._new((((0, 1), 1),), 1, ambient)
