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

The sign convention of the rank relation is pinned by the pushforward
consistency checks in the test suite: the intrinsic Riemann-Roch value
of y*U on PlaneBase2 must agree with the Euler characteristic of the
y-th symmetric power of E on the base.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Tuple

Monomial = Tuple[int, int]  # (power of H, power of U)


@dataclass(frozen=True)
class LineBase4:
    twists: Tuple[int, int, int, int]

    @property
    def top(self) -> Monomial:
        return (1, 3)


@dataclass(frozen=True)
class PlaneBase2:
    c1: int
    c2: int

    @property
    def top(self) -> Monomial:
        return (2, 1)


Ambient = LineBase4 | PlaneBase2


def _product(ambient: Ambient, xs, ys) -> dict:
    """Product of two term lists in the basis, as a dict of basis terms.

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
        # H^i U^2 = c1 H^(i+1) U - c2 H^(i+2), and H^3 = 0.
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


def _accumulate(terms: dict, m: Monomial, c: Fraction) -> None:
    terms[m] = terms[m] + c if m in terms else c


class GradedClass:
    """A fully reduced element of one of the two ambient Chow rings."""

    __slots__ = ("ambient", "coeffs")

    def __init__(self, ambient: Ambient, raw: Mapping[Monomial, Fraction] = ()):
        top_i, top_j = ambient.top
        u = (((0, 1), Fraction(1)),)
        terms: dict = {}
        for (i, j), c in dict(raw).items():
            if c == 0 or i > top_i:
                continue
            part = {(i, min(j, top_j)): c if type(c) is Fraction else Fraction(c)}
            for _ in range(j - top_j):
                part = _product(ambient, part.items(), u)
            for m, c in part.items():
                _accumulate(terms, m, c)
        self._store(ambient, terms.items())

    @classmethod
    def _reduced(cls, ambient: Ambient, terms) -> "GradedClass":
        """A class from (monomial, Fraction) terms already in the basis,
        each monomial at most once: drops zeros and sorts, nothing else."""
        self = object.__new__(cls)
        self._store(ambient, terms)
        return self

    def _store(self, ambient: Ambient, terms) -> None:
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "coeffs", tuple(sorted((m, c) for m, c in terms if c)))

    def __setattr__(self, name, value):
        raise AttributeError("GradedClass is immutable")

    def coeff(self, i: int, j: int) -> Fraction:
        for m, c in self.coeffs:
            if m == (i, j):
                return c
        return Fraction(0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check(self, other: "GradedClass"):
        if self.ambient != other.ambient:
            raise ValueError("ambient ring mismatch")

    def _coerce(self, other):
        if isinstance(other, GradedClass):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            c = other if type(other) is Fraction else Fraction(other)
            return GradedClass._reduced(self.ambient, (((0, 0), c),))
        return None

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.ambient, self.coeffs))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self.coeffs)
        for m, c in o.coeffs:
            _accumulate(terms, m, c)
        return GradedClass._reduced(self.ambient, terms.items())

    __radd__ = __add__

    def __neg__(self):
        return GradedClass._reduced(self.ambient, [(m, -c) for m, c in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return GradedClass._reduced(
                self.ambient, [(m, c * other) for m, c in self.coeffs]
            )
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = _product(self.ambient, self.coeffs, o.coeffs)
        return GradedClass._reduced(self.ambient, terms.items())

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "GradedClass":
        """x**n for n >= 0 by repeated squaring; x**0 is the unit."""
        if n < 0:
            raise ValueError("negative exponent")
        out, base = unit(self.ambient), self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def graded_part(self, k: int) -> "GradedClass":
        return GradedClass._reduced(
            self.ambient, [(m, c) for m, c in self.coeffs if m[0] + m[1] == k]
        )

    def degree(self) -> Fraction:
        """Top intersection number: the coefficient of the top monomial."""
        return self.coeff(*self.ambient.top)

    def render(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for (i, j), c in self.coeffs:
            factors = []
            if i == 1:
                factors.append("H")
            elif i > 1:
                factors.append(f"H^{i}")
            if j == 1:
                factors.append("U")
            elif j > 1:
                factors.append(f"U^{j}")
            mono = "*".join(factors)
            mag = abs(c)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = str(mag)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"GradedClass({self.render()})"


def unit(ambient: Ambient) -> GradedClass:
    return GradedClass._reduced(ambient, (((0, 0), Fraction(1)),))


def H_class(ambient: Ambient) -> GradedClass:
    return GradedClass._reduced(ambient, (((1, 0), Fraction(1)),))


def U_class(ambient: Ambient) -> GradedClass:
    return GradedClass._reduced(ambient, (((0, 1), Fraction(1)),))
