"""A Fraction-coefficient polynomial in one variable, the tests' reference.

``FractionPoly`` keeps each coefficient as a Fraction and runs its ring
arithmetic on them directly, sharing no code with ``bottcheck``: a
reference built on it is independent of ``exact.Poly``, whose forms the
package derives, and of ``exact.UniPoly``, the value it reads them as.
Compare it with a ``UniPoly`` through ``coeffs``.
"""

from fractions import Fraction


class FractionPoly:
    """coeffs[i] is the coefficient of the i-th power, no trailing zero.

    ``+``, ``-`` and ``*`` take another FractionPoly, an int or a
    Fraction on either side; ``/`` takes a nonzero number.
    """

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def _lift(other):
        if isinstance(other, FractionPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return FractionPoly((other,))
        return None

    def coeff(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        return FractionPoly(self.coeff(i) + o.coeff(i) for i in range(n))

    __radd__ = __add__

    def __neg__(self):
        return FractionPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if not self.coeffs or not o.coeffs:
            return FractionPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(o.coeffs):
                out[i + j] += a * b
        return FractionPoly(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return FractionPoly(c / scalar for c in self.coeffs)

    def __pow__(self, n):
        out = FractionPoly((1,))
        for _ in range(n):
            out = out * self
        return out

    def __call__(self, value):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def compose(self, inner):
        """self(inner) by Horner's rule on FractionPoly's ``*`` and ``+``."""
        acc = FractionPoly()
        for c in reversed(self.coeffs):
            acc = acc * inner + c
        return acc

    def __repr__(self):
        return f"FractionPoly({list(self.coeffs)})"


#: The identity polynomial t.
T = FractionPoly((0, 1))
