"""Exact scalar and polynomial arithmetic.

Everything downstream (Chow classes, Chern polynomials, Riemann-Roch
values) is built on the three types here: arbitrary-precision rationals,
univariate polynomials over the rationals, and affine expressions over
named symbols.  There is no floating point anywhere in the package.

``UniPoly`` keeps its coefficients as a tuple ``num`` of int numerators
over one int denominator ``den``, in lowest terms: ``den > 0``,
``gcd(*num, den) == 1``, no trailing zero, and the zero polynomial is
``((), 1)``.  Ring operations are plain integer arithmetic: a product
multiplies the denominators, a sum scales both sides to the lcm of
theirs, and the common factor is cancelled once per result (skipped
when the denominator is 1).  Fractions are made only where a value
leaves the polynomial: ``coeffs``, ``coeff()``, evaluation and
``render``.  The representation is canonical, so ``==`` and ``hash``
compare ``(num, den)``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import factorial, gcd, lcm
from typing import Iterable, Mapping, Tuple, Union

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


def common_denominator(values: Iterable[Number]) -> Tuple[list, int]:
    """Integer numerators of ``values`` over their least common denominator.

    ``values`` are ints or Fractions (anything else goes through
    ``Fraction`` first); returns ``(numerators, denominator)`` with the
    denominator positive.
    """
    fs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in values]
    den = lcm(*(c.denominator for c in fs))
    if den == 1:
        return [c.numerator for c in fs], 1
    return [c.numerator * (den // c.denominator) for c in fs], den


def _convolve(a, b) -> list:
    """Coefficient list of the product of two integer coefficient lists."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


class UniPoly:
    """Univariate polynomial with rational coefficients.

    Stored as integer numerators over one common denominator:
    ``num[i] / den`` is the coefficient of the i-th power.  See the
    module docstring for the invariant.  ``coeffs`` gives the
    coefficients as Fractions.  Instances are immutable; all operations
    return new polynomials.
    """

    __slots__ = ("num", "den")

    def __init__(self, coeffs: Iterable[Number] = ()):
        self._store(*common_denominator(coeffs))

    @classmethod
    def _new(cls, num, den: int) -> "UniPoly":
        """A polynomial from integer numerators over a positive den."""
        self = object.__new__(cls)
        self._store(num, den)
        return self

    def _store(self, num, den: int) -> None:
        """Strip trailing zeros and cancel the common factor, then set."""
        num = list(num)
        while num and not num[-1]:
            num.pop()
        if not num:
            den = 1
        elif den != 1:
            g = gcd(den, *num)
            if g != 1:
                num = [n // g for n in num]
                den //= g
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        """coeffs[i] is the coefficient of the i-th power; () for zero."""
        den = self.den
        return tuple(Fraction(n, den) for n in self.num)

    @property
    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self.num) - 1 if self.num else None

    def coeff(self, i: int) -> Fraction:
        return Fraction(self.num[i], self.den) if 0 <= i < len(self.num) else Fraction(0)

    def is_zero(self) -> bool:
        return not self.num

    @staticmethod
    def _coerce(other):
        if isinstance(other, UniPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return UniPoly._new((other.numerator,), other.denominator)
        return None

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def _plus(self, o: "UniPoly", sign: int) -> "UniPoly":
        a, b, den = self.num, o.num, self.den
        if den != o.den:
            den = lcm(den, o.den)
            a = [x * (den // self.den) for x in a]
            b = [x * (den // o.den) for x in b]
        if sign > 0:
            return UniPoly._new([x + y for x, y in zip_longest(a, b, fillvalue=0)], den)
        return UniPoly._new([x - y for x, y in zip_longest(a, b, fillvalue=0)], den)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o, 1)

    __radd__ = __add__

    def __neg__(self):
        return UniPoly._new([-n for n in self.num], self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o, -1)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            return UniPoly._new([n * p for n in self.num], self.den * other.denominator)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return UniPoly._new(_convolve(self.num, o.num), self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        if not scalar:
            raise ZeroDivisionError("polynomial division by zero")
        p, q = scalar.numerator, scalar.denominator
        if p < 0:
            p, q = -p, -q
        return UniPoly._new([n * q for n in self.num], self.den * p)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        out = UniPoly((1,))
        for _ in range(n):
            out = out * self
        return out

    def __call__(self, value: Number) -> Fraction:
        """Evaluate by Horner's rule, on integers.

        At p/q the sum of num[i] p^i q^(d-i) is accumulated, and divided
        by den q^d once at the end.
        """
        if not self.num:
            return Fraction(0)
        if not isinstance(value, (int, Fraction)):
            value = Fraction(value)
        p, q = value.numerator, value.denominator
        acc, scale = 0, 1
        for c in reversed(self.num):
            acc = acc * p + c * scale
            scale *= q
        return Fraction(acc, self.den * scale // q)

    def compose(self, inner: "UniPoly") -> "UniPoly":
        """self(inner) by Horner's rule as in ``__call__``, with inner's
        numerator polynomial in place of p and its denominator as q."""
        if not self.num:
            return UniPoly()
        inner = self._coerce(inner)
        m, e = inner.num, inner.den
        acc: list = []
        scale = 1
        for c in reversed(self.num):
            acc = _convolve(acc, m) or [0]
            acc[0] += c * scale
            scale *= e
        return UniPoly._new(acc, self.den * scale // e)

    def render(self, var: str = "t") -> str:
        if self.is_zero():
            return "0"
        coeffs = self.coeffs
        parts = []
        for i in range(len(coeffs) - 1, -1, -1):
            c = coeffs[i]
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
