"""Exact scalar and polynomial arithmetic.

Everything downstream (Chow classes, Chern polynomials, Riemann-Roch
values) is built on the three types here: arbitrary-precision rationals,
univariate polynomials over the rationals, and affine expressions over
named symbols.  There is no floating point anywhere in the package.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Iterable, Mapping, Union

# Rationals are stdlib Fractions: always in lowest terms, denominator > 0.
Rational = Fraction

Number = Union[int, Fraction]


def binom(n: int, k: int) -> Fraction:
    """Generalized binomial coefficient n(n-1)...(n-k+1)/k!.

    The upper argument may be any integer (or rational); k must be a
    nonnegative integer.  This is the unique polynomial extension of the
    combinatorial binomial, so e.g. binom(-1, 4) == 1.
    """
    if k < 0:
        raise ValueError(f"binomial lower index must be >= 0, got {k}")
    num = Fraction(1)
    for i in range(k):
        num *= n - i
    return num / factorial(k)


class UniPoly:
    """Univariate polynomial with Fraction coefficients.

    coeffs[i] is the coefficient of the i-th power.  The zero polynomial
    is the empty tuple; otherwise the last coefficient is nonzero.
    Instances are immutable; all operations return new polynomials.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Number] = ()):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    @property
    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def is_zero(self) -> bool:
        return not self.coeffs

    @staticmethod
    def _coerce(other):
        if isinstance(other, UniPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return UniPoly((other,))
        return None

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        return UniPoly(self.coeff(i) + o.coeff(i) for i in range(n))

    __radd__ = __add__

    def __neg__(self):
        return UniPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return UniPoly([c * other for c in self.coeffs])
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero() or o.is_zero():
            return UniPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(o.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return UniPoly(c / scalar for c in self.coeffs)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        out = UniPoly((1,))
        for _ in range(n):
            out = out * self
        return out

    def __call__(self, value: Number) -> Fraction:
        """Evaluate by Horner's rule."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def compose(self, inner: "UniPoly") -> "UniPoly":
        inner = self._coerce(inner)
        acc = UniPoly()
        for c in reversed(self.coeffs):
            acc = acc * inner + c
        return acc

    def render(self, var: str = "t") -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mono = "" if i == 0 else (var if i == 1 else f"{var}^{i}")
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
        return f"UniPoly({self.render()})"


#: The identity polynomial t.
T = UniPoly((0, 1))


def binom_of_poly(p: UniPoly, k: int) -> UniPoly:
    """Falling-factorial binomial with polynomial upper argument."""
    if k < 0:
        raise ValueError(f"binomial lower index must be >= 0, got {k}")
    p = UniPoly._coerce(p)
    out = UniPoly((1,))
    for i in range(k):
        out = out * (p - i)
    return out / factorial(k)


def binom_poly(shift: int, k: int) -> UniPoly:
    """The degree-k polynomial t -> binom(t + shift, k)."""
    return binom_of_poly(T + shift, k)


class Affine:
    """Affine expression const + sum(coeff_s * s) over named symbols s.

    Used for results that stay linear in unresolved quantities: the
    Hodge number h, the six intersection symbols of the threefold
    evaluators, user-suppliable case parameters.  Substituting values
    (numbers or other Affine expressions) for every symbol collapses to
    a Fraction.
    """

    __slots__ = ("const", "terms")

    def __init__(self, const: Number = 0, terms: Mapping[str, Number] | None = None):
        const = const if type(const) is Fraction else Fraction(const)
        object.__setattr__(self, "const", const)
        cleaned = {}
        for s, c in (terms or {}).items():
            c = c if type(c) is Fraction else Fraction(c)
            if c != 0:
                cleaned[s] = c
        object.__setattr__(self, "terms", tuple(sorted(cleaned.items())))

    def __setattr__(self, name, value):
        raise AttributeError("Affine is immutable")

    @staticmethod
    def sym(name: str) -> "Affine":
        return Affine(0, {name: 1})

    @staticmethod
    def _coerce(other):
        if isinstance(other, Affine):
            return other
        if isinstance(other, (int, Fraction)):
            return Affine(other)
        return None

    def coeff(self, name: str) -> Fraction:
        for s, c in self.terms:
            if s == name:
                return c
        return Fraction(0)

    def symbols(self) -> tuple:
        return tuple(s for s, _ in self.terms)

    def is_constant(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.const == o.const and self.terms == o.terms

    def __hash__(self):
        return hash((self.const, self.terms))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for s, c in o.terms:
            terms[s] = terms.get(s, Fraction(0)) + c
        return Affine(self.const + o.const, terms)

    __radd__ = __add__

    def __neg__(self):
        return Affine(-self.const, {s: -c for s, c in self.terms})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return Affine(self.const * scalar, {s: c * scalar for s, c in self.terms})

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return Affine(self.const / scalar, {s: c / scalar for s, c in self.terms})

    def subs(self, values: Mapping[str, Union[Number, "Affine"]]):
        """Substitute symbols; returns a Fraction if none remain."""
        const = self.const
        terms: dict = {}
        for s, c in self.terms:
            if s not in values:
                terms[s] = terms.get(s, 0) + c
                continue
            v = values[s]
            if isinstance(v, Affine):
                const += c * v.const
                for t, d in v.terms:
                    terms[t] = terms.get(t, 0) + c * d
            else:
                const += c * (v if isinstance(v, (int, Fraction)) else Fraction(v))
        out = Affine(const, terms)
        return out.const if out.is_constant() else out

    def render(self) -> str:
        parts = []
        if self.const != 0 or not self.terms:
            parts.append(str(self.const))
        for s, c in self.terms:
            mag = abs(c)
            body = s if mag == 1 else f"{mag}*{s}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"Affine({self.render()})"
