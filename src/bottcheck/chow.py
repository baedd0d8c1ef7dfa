"""Chow rings of the two projective-bundle geometries.

Two ambient rings are supported:

* ``LineBase4``: P(E) over the line with E a split rank-4 bundle with
  twists (a0..a3).  Relations H^2 = 0 and U^4 = (sum a_i) H U^3; the
  canonical basis is H^i U^j with i <= 1, j <= 3, and the degree map is
  normalized by deg(H U^3) = 1.

* ``PlaneBase2``: P(E) over the plane with E of rank 2 and Chern
  numbers (c1, c2).  Relations H^3 = 0 and U^2 = c1 H U - c2 H^2; basis
  H^i U^j with i <= 2, j <= 1, normalized by deg(H^2 U) = 1.

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


def _reduce(ambient: Ambient, raw: Mapping[Monomial, Fraction]) -> dict:
    out: dict = {}
    pending = [
        ((i, j), c if type(c) is Fraction else Fraction(c))
        for (i, j), c in raw.items()
        if c != 0
    ]
    if isinstance(ambient, LineBase4):
        s1 = sum(ambient.twists)
        while pending:
            (i, j), c = pending.pop()
            if i >= 2:
                continue
            if j >= 4:
                if i >= 1:
                    continue  # H * U^4 carries an H^2
                pending.append(((1, j - 1), c * s1))
                continue
            out[(i, j)] = out.get((i, j), Fraction(0)) + c
    else:
        c1, c2 = ambient.c1, ambient.c2
        while pending:
            (i, j), c = pending.pop()
            if i >= 3:
                continue
            if j >= 2:
                pending.append(((i + 1, j - 1), c * c1))
                pending.append(((i + 2, j - 2), -c * c2))
                continue
            out[(i, j)] = out.get((i, j), Fraction(0)) + c
    return {m: c for m, c in out.items() if c != 0}


class GradedClass:
    """A fully reduced element of one of the two ambient Chow rings."""

    __slots__ = ("ambient", "coeffs")

    def __init__(self, ambient: Ambient, raw: Mapping[Monomial, Fraction] = ()):
        object.__setattr__(self, "ambient", ambient)
        reduced = _reduce(ambient, dict(raw))
        object.__setattr__(self, "coeffs", tuple(sorted(reduced.items())))

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
            return GradedClass(self.ambient, {(0, 0): Fraction(other)})
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
            terms[m] = terms.get(m, Fraction(0)) + c
        return GradedClass(self.ambient, terms)

    __radd__ = __add__

    def __neg__(self):
        return GradedClass(self.ambient, {m: -c for m, c in self.coeffs})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return GradedClass(self.ambient, {m: c * other for m, c in self.coeffs})
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms: dict = {}
        for (i1, j1), c1 in self.coeffs:
            for (i2, j2), c2 in o.coeffs:
                m = (i1 + i2, j1 + j2)
                terms[m] = terms.get(m, Fraction(0)) + c1 * c2
        return GradedClass(self.ambient, terms)

    __rmul__ = __mul__

    def graded_part(self, k: int) -> "GradedClass":
        return GradedClass(
            self.ambient, {m: c for m, c in self.coeffs if m[0] + m[1] == k}
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
    return GradedClass(ambient, {(0, 0): Fraction(1)})


def H_class(ambient: Ambient) -> GradedClass:
    return GradedClass(ambient, {(1, 0): Fraction(1)})


def U_class(ambient: Ambient) -> GradedClass:
    return GradedClass(ambient, {(0, 1): Fraction(1)})
