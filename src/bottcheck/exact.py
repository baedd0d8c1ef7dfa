"""Exact scalar and polynomial arithmetic.

Everything downstream (Chow classes, Chern polynomials, Riemann-Roch
values) is built on the types here: arbitrary-precision rationals,
sparse polynomials over named variables, optionally in a quotient ring,
and the univariate polynomials they are viewed as.  There is no floating
point anywhere in the package.

Every ring element keeps int numerators over one positive int
denominator, in lowest terms.  A number that leaves the package's
engines is an int when it is whole and a Fraction only when it is not
(``divided``); only the ``coeffs`` views are Fractions throughout.
``_Sparse`` states that stored form once and holds the one ring
arithmetic, on sparse (monomial, numerator) terms; ``Poly`` here
and ``chow.GradedClass`` are its subclasses and supply only their unit
monomial, their product of terms and the text of a monomial.  Every
symbolic form of the package, affine or not, is a plain ``Poly``, so
``Poly.subs`` is the one engine that substitutes into one.  ``UniPoly``
is the dense value that ``Poly.as_unipoly`` returns: the same stored
form as a tuple ``num`` of the numerators of 1, t, t^2, ..., which is
evaluated, compared and printed but has no arithmetic.  ``_render`` is
the one text form of all of them, and ``rendered`` that of a route
value, a number or a ``Poly``; ``binom`` takes a number or a ring
element as its upper argument.

``Poly.subs`` and ``Poly.as_unipoly`` have one path: they run code
compiled from the form, a function of the values as positional
arguments that reads the numerators from a tuple, written in plain
``*``, ``**`` and ``+`` without any coefficient, name or builtin in its
text, built on the first call and kept on the form.  At ints it runs in
int arithmetic: ``subs`` divides the sum by the form's denominator as
ints, so a whole value costs no Fraction, and ``as_unipoly`` makes one
UniPoly.  At a Fraction or a polynomial value, or with a variable left
free as its own symbol, the same code runs on those values' own
arithmetic, and the sum is divided by the denominator once.  The cached
forms of ``theorems``, ``chern`` and ``rr`` compile once.

A ``QuotientRule`` carried by a ``Poly`` rewrites every product into
the normal form of a quotient ring; with c1 and c2 as variables, one
such rule holds a Chow ring symbolic in its own parameters (the
"abstract variety" of Katz and Stromme's Schubert; Fulton, Intersection
Theory, 3.2).
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, lcm, prod
from operator import itemgetter
from typing import Iterable, Mapping, Tuple, Union

Number = Union[int, Fraction]


def binom(n, k: int):
    """Generalized binomial coefficient n(n-1)...(n-k+1)/k!.

    The upper argument may be any integer or rational, giving a
    Fraction, or a ring element with ``-``, ``*``, ``/`` and ``** 0``
    (``Poly``, ``GradedClass``), giving an element of its ring;
    binom(p, 0) is the ring's unit.  k must be a nonnegative integer.
    This is the unique polynomial extension of the combinatorial
    binomial, so e.g. binom(-1, 4) == 1.
    """
    if k < 0:
        raise ValueError(f"binomial lower index must be >= 0, got {k}")
    return divided(prod((n - i for i in range(k)), start=n ** 0), factorial(k))


def divided(x, n: int):
    """x / n for an int n > 0, exactly: an int ``x`` gives an int when n
    divides it and a Fraction otherwise, never a float; a Fraction or a
    ring element gives ``x / n``."""
    if type(x) is not int:
        return x / n
    if n == 1:
        return x
    q, r = divmod(x, n)
    return Fraction(x, n) if r else q


_get_int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def max_str_digits() -> int:
    """``sys.get_int_max_str_digits()``, the most digits Python reads or
    prints in an integer: 0, no bound, when so set or on a Python before
    3.10.7, which has none."""
    return _get_int_max_str_digits()


def check_printable(value, what: str):
    """Return ``value``, or raise ValueError naming ``what`` if a numerator
    or a denominator in it has more than ``max_str_digits()`` digits, the
    size past which Python refuses to print an integer (no bound when that
    is 0).  ``value`` is an int, a Fraction, or one of the ring types here
    or their subclasses."""
    digits = max_str_digits()
    if not digits:
        return value
    # A number below 2**(3*digits) < 10**digits is short enough; only a
    # longer one pays for building 10**digits.
    bits = 3 * digits
    integers = _integers(value)
    if max(map(int.bit_length, integers)) > bits and any(
        n.bit_length() > bits and abs(n) >= 10 ** digits for n in integers
    ):
        raise ValueError(f"{what} has a coefficient of more than {digits} digits")
    return value


def _integers(value) -> list:
    """Every numerator and denominator stored in ``value``."""
    if isinstance(value, _Sparse):
        return [*[n for _, n in value._terms], value.den]
    if isinstance(value, int):
        return [value]
    if isinstance(value, Fraction):
        return [value.numerator, value.denominator]
    return [*value.num, value.den]


#: The most characters of an input that an error message quotes.
QUOTE_LIMIT = 80


def quoted(text: str) -> str:
    """``repr(text)``, cut to its first ``QUOTE_LIMIT`` characters and its
    length when longer, so that an error line stays short."""
    if len(text) <= QUOTE_LIMIT:
        return repr(text)
    return f"{text[:QUOTE_LIMIT]!r}... ({len(text)} characters)"


def shortened(text: str) -> str:
    """``text`` as it is, or cut as ``quoted`` cuts it when longer than
    ``QUOTE_LIMIT``, for a value an error line shows without quotes."""
    if len(text) <= QUOTE_LIMIT:
        return text
    return f"{text[:QUOTE_LIMIT]}... ({len(text)} characters)"


# A run of digits, with the underscores Python allows between them.
_DIGIT_RUN = re.compile(r"\d[\d_]*")


def check_digits(text: str) -> str:
    """Return ``text``, or raise OverflowError, without quoting it, if a run
    of digits in it (underscores not counted) is longer than
    ``max_str_digits()``, past which ``int()`` refuses to read it (no bound
    when that is 0)."""
    limit = max_str_digits()
    if limit and len(text) > limit and any(
        len(run) - run.count("_") > limit for run in _DIGIT_RUN.findall(text)
    ):
        raise OverflowError(f"the value has a number of more than {limit} digits")
    return text


_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\s*\Z")


def parse_rational(text: str) -> Fraction:
    """``Fraction(text)``, but OverflowError for an exponent, as in
    ``1e5000``, larger in magnitude than ``max_str_digits()`` (no bound
    when that is 0): Fraction builds 10**exponent before any later bound
    could see it; then OverflowError for a number that ``check_digits``
    refuses.  Otherwise raises what Fraction raises."""
    limit = max_str_digits()
    exp = _EXPONENT.search(text) if limit else None
    if exp:
        digits = exp[1].replace("_", "").lstrip("0")
        if len(digits) > len(str(limit)) or int(digits or 0) > limit:
            raise OverflowError(
                f"the exponent of {quoted(text)} exceeds {limit} in magnitude"
            )
    return Fraction(check_digits(text))


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


def _power(var: str, e: int) -> str:
    """The text of var^e for e >= 1."""
    return var if e == 1 else f"{var}^{e}"


def _render(terms, den: int = 1) -> str:
    """The text of a sum of (monomial text, int numerator) ``terms`` over
    ``den``: zero terms skipped, "" the text of the unit monomial, a
    magnitude of 1 left out before a monomial, and "0" for no term."""
    parts = []
    for mono, n in terms:
        if n:
            # |n|/den in lowest terms, as str(Fraction(abs(n), den)) writes it.
            mag = abs(n)
            if den == 1:
                mag = str(mag)
            else:
                g = gcd(mag, den)
                mag = f"{mag // g}/{den // g}" if g != den else str(mag // g)
            body = mag if not mono else mono if mag == "1" else f"{mag}*{mono}"
            if parts:
                parts.append(f"- {body}" if n < 0 else f"+ {body}")
            else:
                parts.append(f"-{body}" if n < 0 else body)
    return " ".join(parts) or "0"


def rendered(value) -> str:
    """The text of a route value: a ``Poly``'s ``render()``, else ``str``
    of its number, the text that ``render()`` gives for that constant."""
    return value.render() if isinstance(value, Poly) else str(value)


class UniPoly:
    """Univariate polynomial with rational coefficients: the dense value
    that ``Poly.as_unipoly`` returns, to evaluate, compare, print and read.

    Stored as integer numerators over one common denominator:
    ``num[i] / den`` is the coefficient of the i-th power, in the form
    of ``_Sparse`` with a dense tuple for its terms: no trailing zero,
    and zero is ``((), 1)``.  ``coeffs`` gives the coefficients as
    Fractions.  It has no ring arithmetic: one-variable arithmetic runs
    on ``Poly``, and ``as_unipoly`` views the result.  Instances are
    immutable.
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

    def __reduce__(self):
        # copy and pickle rebuild through _new: their default protocol
        # assigns the slots, which __setattr__ refuses.
        return type(self)._new, (self.num, self.den)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _store(self, num, den: int) -> None:
        """Strip trailing zeros and cancel the common factor, then set.
        ``num`` is a list or a tuple."""
        k = len(num)
        while k and not num[k - 1]:
            k -= 1
        if not k:
            num, den = (), 1
        else:
            num = tuple(num[:k]) if k < len(num) else tuple(num)
            if den != 1:
                g = gcd(den, *num)
                if g != 1:
                    num = tuple([n // g for n in num])
                    den //= g
        _set_num(self, num)
        _set_uni_den(self, den)

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        """coeffs[i] is the coefficient of the i-th power; () for zero."""
        den = self.den
        return tuple(Fraction(n, den) for n in self.num)

    @property
    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self.num) - 1 if self.num else None

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __call__(self, value: Number) -> Number:
        """Evaluate by Horner's rule over the numerators, then divide by
        ``den`` once: on ints at an int, in Fraction arithmetic at any
        other value.  The value is an int when it is whole and a Fraction
        otherwise."""
        if not isinstance(value, (int, Fraction)):
            value = Fraction(value)
        acc = 0
        for c in reversed(self.num):
            acc = acc * value + c
        if type(acc) is int:
            return divided(acc, self.den)
        acc /= self.den
        return acc.numerator if acc.denominator == 1 else acc

    def render(self, var: str = "t") -> str:
        return _render(
            ((_power(var, i) if i else "", self.num[i])
             for i in range(len(self.num) - 1, -1, -1)),
            self.den,
        )

    def __repr__(self):
        return f"UniPoly({self.render()})"


# The slots' own setters, which skip the attribute lookup of
# ``object.__setattr__``; ``UniPoly.__setattr__`` refuses assignment.
_set_num = UniPoly.num.__set__
_set_uni_den = UniPoly.den.__set__


# --- sparse polynomials over named variables --------------------------------
#
# A monomial is a tuple of (variable, exponent) pairs, sorted by variable,
# every exponent >= 1; () is the constant monomial.

Monomial = Tuple[Tuple[str, int], ...]


def _monomial(raw) -> Monomial:
    """The canonical monomial of (variable, exponent) pairs ``raw``."""
    exps: dict = {}
    for v, e in raw:
        if e < 0:
            raise ValueError(f"negative exponent {e} of {v!r}")
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted((v, e) for v, e in exps.items() if e))


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    exps = dict(m1)
    for v, e in m2:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def _mono_div(m: Monomial, d: Monomial):
    """m / d as a monomial, or None when d does not divide m."""
    exps = dict(m)
    for v, e in d:
        if exps.get(v, 0) < e:
            return None
        exps[v] -= e
    return tuple((v, exps[v]) for v, _ in m if exps[v])


def _accumulate(terms: dict, m, c) -> None:
    terms[m] = terms[m] + c if m in terms else c


def _balanced(parts: list, op: str) -> str:
    """The text of ``parts`` joined by ``op``, parenthesised as a balanced
    tree, so that the compiler's nesting depth grows with the logarithm
    of their number."""
    while len(parts) > 1:
        parts = [f"({x} {op} {y})" for x, y in zip(parts[::2], parts[1::2])] + (
            parts[-1:] if len(parts) % 2 else [])
    return parts[0]


def _int_source(terms, variables: tuple, kept: str | None = None) -> str:
    """The text of ``lambda c: lambda x0, ..., xn: ...``: given ``c``, the
    numerators of ``terms`` followed by a 0, it makes the function that
    sums those numerators times the powers of ``variables``, named
    x0...xn in order, at ints, Fractions or polynomials alike.  With
    ``kept`` it returns instead one such sum per power of ``kept`` (0 up
    to its highest), a variable not among ``variables``; a power that no
    term has reads the 0.

    The text names only ``c`` and the parameters, uses no number other
    than an index into ``c`` and an exponent, and no arithmetic but ``*``,
    ``**`` and ``+``."""
    param = {v: f"x{i}" for i, v in enumerate(variables)}
    sums: dict = {}
    for i, (m, _) in enumerate(terms):
        factors, power = [f"c[{i}]"], 0
        for v, e in m:
            if v == kept:
                power = e
            else:
                factors.append(param[v] if e == 1 else f"{param[v]}**{e}")
        sums.setdefault(power, []).append(_balanced(factors, "*"))
    zero = f"c[{len(terms)}]"
    if kept is None:
        body = _balanced(sums.get(0, [zero]), "+")
    else:
        body = "".join(f"{_balanced(sums.get(e, [zero]), '+')}, "
                       for e in range(max(sums, default=0) + 1))
        body = f"({body})"
    return f"lambda c: lambda {', '.join(param.values())}: {body}"


def _int_code(terms, variables: tuple, kept: str | None = None):
    """The function whose text ``_int_source`` gives, compiled with no
    builtins and bound to the numerators of ``terms``."""
    source = _int_source(terms, variables, kept)
    make = eval(compile(source, "<Poly int code>", "eval"), {"__builtins__": {}})
    return make((*(n for _, n in terms), 0))


@dataclass(frozen=True)
class QuotientRule:
    """Relations lhs = rhs that define a quotient of a polynomial ring.

    Built from pairs (lhs, rhs): lhs a monomial ``Poly`` with coefficient
    1, rhs a ``Poly`` with integer coefficients, or a number (0 kills
    every multiple of lhs); neither carries a rule.  ``reduce`` rewrites
    a term divisible by an lhs, trying the relations in order, until no
    lhs divides any term.  That terminates, and gives a normal form, only
    when the relations form a rewriting system that does; the rules of
    the package, ``chow.PLANE_RULE`` and ``chow.LINE_RULE``, are such
    systems, as the ``chow`` module docstring shows.
    """

    relations: tuple

    def __post_init__(self):
        rels = []
        for lhs, rhs in self.relations:
            rhs = rhs if isinstance(rhs, Poly) else Poly({(): rhs})
            if (lhs.rule is not None or lhs.den != 1 or len(lhs._terms) != 1
                    or lhs._terms[0][1] != 1 or not lhs._terms[0][0]):
                raise ValueError(
                    f"a relation's left side must be a monomial, got {lhs!r}"
                )
            if rhs.rule is not None or rhs.den != 1:
                raise ValueError(
                    f"a relation's right side needs integer coefficients, got {rhs!r}"
                )
            rels.append((lhs._terms[0][0], rhs._terms))
        object.__setattr__(self, "relations", tuple(rels))

    def reduce(self, terms: dict) -> dict:
        """The normal form of a {monomial: int} dict, as a new dict."""
        out: dict = {}
        pending = list(terms.items())
        while pending:
            m, c = pending.pop()
            for lhs, rhs in self.relations:
                rest = _mono_div(m, lhs)
                if rest is not None:
                    pending.extend((_mono_mul(rest, r), c * d) for r, d in rhs)
                    break
            else:
                _accumulate(out, m, c)
        return out


def _cancelled(terms, den: int):
    """Sorted nonzero (monomial, int) ``terms``, a list or a tuple, over a
    positive ``den``, as the tuple and denominator of the stored form:
    the common factor cancelled (skipped when ``den`` is 1), and zero as
    ``((), 1)``."""
    if not terms:
        return (), 1
    if den != 1:
        g = gcd(den, *[c for _, c in terms])
        if g != 1:
            return tuple([(m, c // g) for m, c in terms]), den // g
    return tuple(terms), den


class _Sparse:
    """A sparse element of a ring over the rationals, in stored form, with
    the one ring arithmetic of the package: ``+``, ``-``, ``*``, division
    by a number and powers.

    The slot ``_terms`` holds (monomial, int numerator) pairs over the
    one int denominator ``den``, in lowest terms:

    * the monomials are sorted and distinct, and no numerator is 0;
    * ``den > 0``, and the gcd of ``den`` and every numerator is 1;
    * zero is ``((), 1)``.

    The form is canonical, so ``==`` and ``hash`` compare it.  Ring
    operations are integer arithmetic: a product multiplies the
    denominators, a sum scales both sides to the lcm of theirs, and the
    common factor is cancelled once per result (skipped when the
    denominator is 1).  A sum or a product goes through ``_store``, which
    drops zeros and sorts.  A negation and a multiple by a nonzero int or
    Fraction (``_scaled``) skip both: they change no monomial, and they
    scale every numerator by the same nonzero int, so the stored terms
    stay sorted, distinct and nonzero; only the gcd can change, and it is
    cancelled when the new denominator is not 1.  ``x / n`` is ``_scaled``
    by the numerator and denominator of 1/n, with no Fraction made.
    Zero times anything is the zero element.  Terms already in stored
    form are set through ``_canonical``.  Fractions are made only where a
    value leaves the element: the ``coeffs`` view, and a subclass's
    coefficient view when the coefficient is not whole; ``render`` writes
    each magnitude from ints.
    ``terms`` reads the stored pairs; code in the package reads the slot.

    ``ring`` is what the element lives in beyond its monomials (a
    quotient rule, an ambient Chow ring, or None).  Operands must share
    it; ints and Fractions take the ring of the other operand.
    Instances are immutable.

    A subclass supplies its unit monomial ``ONE``, ``_product`` of two
    term lists, and the text of a monomial: ``_mono_text``, by default
    the powers of ``NAMES`` for a monomial stored as a tuple of exponents.
    """

    __slots__ = ("_terms", "den", "ring")

    ONE: tuple = ()
    NAMES: tuple = ()
    MISMATCH = "ring mismatch"

    @classmethod
    def _new(cls, terms, den: int, ring=None):
        """An element from (monomial, int) terms over a positive ``den``,
        each monomial canonical, at most once, and in the ring's normal
        form."""
        self = object.__new__(cls)
        self._store(terms, den, ring)
        return self

    @classmethod
    def _canonical(cls, terms: tuple, den: int, ring=None):
        """An element from a tuple of terms over ``den`` that is already in
        stored form, set as it is, without ``_store``'s filter, sort and
        gcd."""
        self = object.__new__(cls)
        _set_terms(self, terms)
        _set_den(self, den)
        _set_ring(self, ring)
        return self

    def __reduce__(self):
        # copy and pickle rebuild through _new, as UniPoly does; a memo that
        # a subclass keeps in another slot (Poly._compiled) stays behind.
        return type(self)._new, (self._terms, self.den, self.ring)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _store(self, terms, den: int, ring) -> None:
        """Drop zero terms, sort, cancel the common factor, then set."""
        terms, den = _cancelled(sorted([t for t in terms if t[1]]), den)
        _set_terms(self, terms)
        _set_den(self, den)
        _set_ring(self, ring)

    @property
    def terms(self) -> tuple:
        """The stored (monomial, int numerator) pairs, over ``den``."""
        return self._terms

    @property
    def coeffs(self) -> tuple:
        """The sorted nonzero (monomial, Fraction) terms."""
        den = self.den
        return tuple((m, Fraction(c, den)) for m, c in self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def _coerce(self, other):
        if isinstance(other, type(self)):
            if other.ring is not self.ring and other.ring != self.ring:
                raise ValueError(self.MISMATCH)
            return other
        if isinstance(other, (int, Fraction)):
            n = other.numerator
            return self._canonical(((self.ONE, n),) if n else (), other.denominator,
                                   self.ring)
        return None

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms and self.den == o.den

    def __hash__(self):
        return hash((self._terms, self.den, self.ring))

    def _plus(self, o, sign: int):
        den = self.den
        a, b = 1, sign
        if den != o.den:
            den = lcm(den, o.den)
            a, b = den // self.den, sign * (den // o.den)
        terms = {m: c * a for m, c in self._terms}
        for m, c in o._terms:
            _accumulate(terms, m, c * b)
        return self._new(terms.items(), den, self.ring)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o, 1)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o, -1)

    def __rsub__(self, other):
        return -(self - other)

    def __neg__(self):
        return self._canonical(tuple([(m, -c) for m, c in self._terms]), self.den,
                               self.ring)

    def _scaled(self, p: int, q: int):
        """This element times p/q, a number in lowest terms with q > 0.

        The monomials and their order stay; a nonzero p makes no numerator
        0.  Only the common factor of p and the denominator, or of q and
        the numerators, can arise, so it is cancelled once, and only when
        the new denominator is not 1."""
        if not p:
            return self._canonical((), 1, self.ring)
        terms = self._terms if p == 1 else [(m, c * p) for m, c in self._terms]
        return self._canonical(*_cancelled(terms, self.den * q), self.ring)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other.numerator, other.denominator)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = self._product(self._terms, o._terms)
        return self._new(terms.items(), self.den * o.den, self.ring)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        p, q = scalar.numerator, scalar.denominator
        if not p:
            raise ZeroDivisionError("division by zero")
        if p < 0:  # times q/p, the sign moved to the numerator
            p, q = -p, -q
        return self._scaled(q, p)

    def __pow__(self, n: int):
        """x**n for n >= 0 by repeated squaring; x**0 is the unit.

        Every intermediate goes through ``check_printable``, so a huge
        exponent raises ValueError before it exhausts memory.
        """
        if n < 0:
            raise ValueError("negative exponent")
        what = f"the power ^{n}"
        out, base, k = None, self, n
        while k:
            if k & 1:
                out = base if out is None else check_printable(out * base, what)
            k >>= 1
            if k:
                base = check_printable(base * base, what)
        return self._coerce(1) if out is None else out

    def _mono_text(self, m) -> str:
        return "*".join(_power(v, e) for v, e in zip(self.NAMES, m) if e)

    def render(self) -> str:
        return _render(((self._mono_text(m), c) for m, c in self._terms), self.den)

    def __repr__(self):
        return f"{type(self).__name__}({self.render()})"


# The slots' own setters, as for UniPoly.
_set_terms = _Sparse._terms.__set__
_set_den = _Sparse.den.__set__
_set_ring = _Sparse.ring.__set__


class Poly(_Sparse):
    """Sparse polynomial over named variables with rational coefficients.

    A monomial is a tuple of (variable, exponent) pairs; the stored form
    is ``_Sparse``'s.  ``rule``, the element's ring, is None or a
    ``QuotientRule``; the constructor and every product reduce by it, so
    a polynomial with a rule is an element of the quotient ring, in
    normal form.  Operands must carry equal rules, as two
    ``GradedClass`` operands must share their ambient ring.

    ``subs`` substitutes numbers, or polynomials, for variables of a
    polynomial without a rule, and is the one substitution engine of the
    package; ``as_unipoly`` views a polynomial in one variable as a
    ``UniPoly``; ``coeff`` extracts the coefficient of a monomial in some
    of the variables, as a polynomial in the others.
    """

    # The memo of ``_run``: {kept variable or None: (gather, function)},
    # set on the first call; ``==`` and ``hash`` ignore it.
    __slots__ = ("_compiled",)

    MISMATCH = "quotient rule mismatch"

    def __init__(self, raw: Mapping = (), rule: QuotientRule | None = None):
        raw = dict(raw)
        nums, den = common_denominator(raw.values())
        terms: dict = {}
        for m, c in zip(raw, nums):
            _accumulate(terms, _monomial(m), c)
        if rule is not None:
            terms = rule.reduce(terms)
        self._store(terms.items(), den, rule)

    @staticmethod
    def sym(name: str, rule: QuotientRule | None = None) -> "Poly":
        """The variable ``name``, in the ring of ``rule``."""
        return Poly({((name, 1),): 1}, rule)

    @property
    def rule(self) -> QuotientRule | None:
        return self.ring

    def _product(self, xs, ys) -> dict:
        terms: dict = {}
        for m1, a in xs:
            for m2, b in ys:
                _accumulate(terms, _mono_mul(m1, m2), a * b)
        return terms if self.ring is None else self.ring.reduce(terms)

    def _mono_text(self, m) -> str:
        return "*".join(_power(v, e) for v, e in m)

    def coeff(self, monomial: Mapping[str, int]) -> "Poly":
        """The coefficient of ``monomial``, a {variable: exponent} map, as
        a polynomial without a rule in the variables it does not name.

        A term counts when its exponent of each named variable is exactly
        the one given (0 for a variable absent from the term).
        """
        want = dict(monomial)
        out = []
        for m, c in self._terms:
            exps = dict(m)
            if all(exps.get(v, 0) == e for v, e in want.items()):
                out.append((tuple((v, e) for v, e in m if v not in want), c))
        return Poly._new(out, self.den)

    def _run(self, values: Mapping, kept: str | None = None):
        """This polynomial's compiled code run at ``values``: the sum of
        its numerators times the powers of the values, or with ``kept``
        one such sum per power of it; None when a variable but ``kept``
        gets no value.  The function is compiled on the first call for
        each ``kept`` and kept in the slot ``_compiled``, beside the one
        ``itemgetter`` that gathers its arguments from ``values`` as a
        tuple."""
        try:
            gather, code = self._compiled[kept]
        except (AttributeError, KeyError):
            variables = tuple(sorted({v for m, _ in self._terms for v, _ in m} - {kept}))
            code = _int_code(self._terms, variables, kept)
            # itemgetter of one key gives the value, not a 1-tuple, and of
            # none cannot be made.
            gather = itemgetter(*variables) if len(variables) > 1 else (
                lambda args: [args[v] for v in variables])
            if not hasattr(self, "_compiled"):
                object.__setattr__(self, "_compiled", {})
            self._compiled[kept] = gather, code
        try:
            return code(*gather(values))
        except KeyError:
            return None

    def subs(self, values: Mapping[str, Union[Number, "Poly"]]):
        """Substitute numbers, or polynomials without a rule, for variables.

        Returns a number when every variable of the polynomial gets one:
        an int when the value is whole and a Fraction otherwise.
        Otherwise returns a Poly in the variables left and those of the
        polynomial values, even if it has become constant, so the type
        depends only on which variables are given and which values are
        numbers.  Names that do not occur are ignored.  A rule on this
        polynomial or on a value raises ValueError: its variables are not
        free.

        Every call runs this form's compiled code (``_run``) and divides
        the sum by ``den`` once.  When every value is an int and every
        variable gets one, the sum is an int, and a Fraction is made only
        when ``den`` does not divide it (``divided``).  Otherwise a value
        that is not a number goes through ``Fraction``, a variable
        without a value stands for itself, and the same code runs on the
        ring's own ``*``, ``**`` and ``+``.
        """
        if self.ring is not None:
            raise ValueError("cannot substitute into a quotient ring")
        for x in values.values():
            if type(x) is not int:
                break
        else:
            n = self._run(values)
            if n is not None:
                return divided(n, self.den)
        vals = _checked(values)
        for v in {v for m, _ in self._terms for v, _ in m}.difference(vals):
            vals[v] = Poly.sym(v)
        total = divided(self._run(vals), self.den)
        if type(total) is Fraction and total.denominator == 1:
            return total.numerator
        return total

    def as_unipoly(self, var: str, values: Mapping[str, Number] | None = None) -> UniPoly:
        """``self.subs(values)`` as a UniPoly in ``var``.

        ``values`` are numbers.  Runs the compiled code for ``var``
        (``_run``), which gives the sum for each power of ``var``: in ints
        when every value is an int, and otherwise at ``values`` converted
        as ``subs`` converts them, put over their common denominator.

        ValueError if the polynomial has a rule, if ``values`` names
        ``var``, or if another variable gets no value.
        """
        if self.ring is not None:
            raise ValueError("a polynomial with a quotient rule is not a UniPoly")
        values = values or {}
        if var in values:
            raise ValueError(f"{var} is the variable of the UniPoly; it takes no value")
        for x in values.values():
            if type(x) is not int:
                break
        else:
            nums = self._run(values, var)
            if nums is not None:
                return UniPoly._new(nums, self.den)
        sums = self._run(_checked(values), var)
        if sums is None:
            raise ValueError(f"{self.render()} is not a polynomial in {var} alone")
        nums, den = common_denominator(sums)
        return UniPoly._new(nums, den * self.den)


def _checked(values: Mapping) -> dict:
    """``values`` as a new dict for ``Poly.subs``: a Poly without a rule,
    an int or a Fraction as it is, anything else through Fraction.
    ValueError for a Poly with a rule."""
    out = {}
    for v, x in values.items():
        if isinstance(x, Poly):
            if x.ring is not None:
                raise ValueError(f"the value of {v!r} has a quotient rule")
        elif not isinstance(x, (int, Fraction)):
            x = Fraction(x)
        out[v] = x
    return out

