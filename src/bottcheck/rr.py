"""Riemann-Roch engines on the surface and threefolds.

Also houses the Euler-characteristic machinery for line bundles on the
rank-4 projective bundle over the line: the closed form f(x, y) for
chi(W, xH + yU), its monomial-enumeration oracle, and the
Euler-Jaczewski six-term combination for chi(W, Omega_W(xH + yU)).
"""

from __future__ import annotations

from functools import cache

from .chern import cotangent_twist_e_classes, symbolic_degree
from .exact import Poly, binom, divided


class HypothesisViolation(ValueError):
    """An input violates a hypothesis required by the formula in use."""


def hrr_threefold(c1, c2, e1, e2, e3, rank: int, degree):
    """Hirzebruch-Riemann-Roch on a threefold.

    chi = r c1c2/24 + e1(c1^2 + c2)/12 + c1(e1^2 - 2 e2)/4
          + (e1^3 - 3 e1 e2 + 3 e3)/6

    The classes may live in any ring with +, * and integer scalars;
    ``degree`` is the top-intersection functional of that ring.  The four
    degrees are summed over their common denominator 24 and divided once,
    so int degrees give an int when chi is whole.
    """
    return divided(
        rank * degree(c1 * c2)
        + 2 * degree(e1 * (c1 * c1 + c2))
        + 6 * degree(c1 * (e1 * e1 - 2 * e2))
        + 4 * degree(e1 * e1 * e1 - 3 * e1 * e2 + 3 * e3),
        24,
    )


@cache
def chi_twisted_cotangent_symbolic() -> Poly:
    """chi(X, Omega_X(-H + K_X)) as a Poly, affine in the six
    intersection symbols h, c13, c12H, c1H2, c2H, H3.

    ``hrr_threefold`` with c1 and c2 as Poly variables, the classes of
    ``cotangent_twist_e_classes`` and ``symbolic_degree`` as degree map.
    The form takes no input, so it is derived once per process, on the
    first call, and the same object is returned afterwards.  Sharing it
    is safe because a Poly is immutable; callers substitute into it.
    """
    e1, e2, e3 = cotangent_twist_e_classes()
    return hrr_threefold(Poly.sym("c1"), Poly.sym("c2"), e1, e2, e3, 3, symbolic_degree)


def chi_plane(rank, c1, c2):
    """chi of a bundle on the plane: r - c2 + c1(c1 + 3)/2.

    Arguments may be numbers or polynomials.
    """
    return rank - c2 + divided(c1 * (c1 + 3), 2)


def f_formula(x, y, p: int, q: int):
    """chi(W, xH + yU) = (p+q) binom(y+3, 4) + (x+1) binom(y+3, 3).

    x, y, p and q may be integers or polynomials; the result is exact
    either way.  With Poly values of x, p and q and an integer y it is
    affine in them, which is how thm2's chain is derived symbolically.
    """
    return (p + q) * binom(y + 3, 4) + (x + 1) * binom(y + 3, 3)


def f_splitting_oracle(x: int, y: int, p: int, q: int) -> int:
    """chi(W, xH + yU) by pushing forward to the line.

    Enumerates the monomials of the y-th symmetric power of
    O^2 + O(p) + O(q) and sums chi of each twisted summand, as ints, into
    an int; only defined for y >= 0.
    """
    if y < 0:
        raise ValueError(f"oracle needs y >= 0, got {y}")
    total = 0
    for i in range(y + 1):
        for j in range(y + 1 - i):
            mult = y - i - j + 1  # exponent splittings over the two O's
            total += mult * (x + i * p + j * q + 1)
    return total


def euler_jaczewski_chi(x, y, p: int, q: int):
    """chi(W, Omega_W(xH + yU)) via the toric cotangent sequence.

    The toric boundary of W has six components, linearly equivalent to
    H, H, U, U, U - pH, U - qH; the resulting six-term combination of f
    computes chi exactly.
    """
    return (
        2 * f_formula(x - 1, y, p, q)
        + 2 * f_formula(x, y - 1, p, q)
        + f_formula(x + p, y - 1, p, q)
        + f_formula(x + q, y - 1, p, q)
        - 2 * f_formula(x, y, p, q)
    )

