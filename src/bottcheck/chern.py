"""Chern-class calculus on the surface and threefold level.

Covers: tensor products of bundles on the plane, symmetric powers of a
rank-2 bundle (closed-form polynomials plus an independent
splitting-principle oracle), the Chern classes of the twisted cotangent
bundle of a weak Fano threefold as polynomials in its symbolic classes,
with the degree map that integrates them, and the tangent classes of a
P^1-bundle over the plane.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .chow import H_class, PlaneBase2, U_class
from .exact import Number, Poly, UniPoly, binom, divided


@dataclass(frozen=True)
class SurfaceChern:
    """Rank and Chern numbers (coefficients of h, h^2) on the plane, each
    an int or a Fraction: kept as given, and any other number converted
    to a Fraction.

    ``__init__`` fills the instance's ``__dict__`` in one update, as
    ``bottcases.CaseRecord``'s does; ``==``, ``hash`` and ``repr`` are the
    dataclass's own."""

    rank: int
    c1: Number
    c2: Number

    def __init__(self, rank, c1, c2):
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        self.__dict__.update({
            "rank": rank,
            "c1": c1 if isinstance(c1, (int, Fraction)) else Fraction(c1),
            "c2": c2 if isinstance(c2, (int, Fraction)) else Fraction(c2),
        })


def tensor_c1(r, s, c1, d1):
    """c1 of a tensor product; arguments may be numbers or polynomials."""
    return s * c1 + r * d1


def tensor_c2(r, s, c1, c2, d1, d2):
    """c2 of a tensor product of bundles of ranks r and s on the plane."""
    return (
        s * c2
        + r * d2
        + divided((s * (s - 1)) * c1 * c1, 2)
        + divided((r * (r - 1)) * d1 * d1, 2)
        + c1 * d1 * (r * s - 1)
    )


@dataclass(frozen=True)
class SymPowerPolys:
    """Chern numbers of S^b E and (S^b E)(-1) as polynomials in b.

    ``sym_power_polys`` gives UniPolys in b; ``sym_power_form`` gives
    Polys in b, c1 and c2, as ``sym_power_classes`` does on Polys.
    """

    C1: UniPoly | Poly
    C2: UniPoly | Poly
    A1: UniPoly | Poly
    A2: UniPoly | Poly


def sym_power_classes(t, c1, c2) -> SymPowerPolys:
    """Chern numbers of S^t E and (S^t E)(-1) for E of rank 2 on the plane
    with Chern numbers c1, c2.

    The arguments may be numbers or elements of a polynomial ring, such
    as ``Poly``; ``t`` is the power, usually a variable.
    """
    C1 = divided(c1 * t * (t + 1), 2)
    C2 = divided(c1 * c1 * t * (t * t - 1) * (3 * t + 2), 24) + c2 * binom(t + 2, 3)
    A1 = C1 - (t + 1)
    A2 = C2 + binom(t + 1, 2) - t * C1
    return SymPowerPolys(C1, C2, A1, A2)


@cache
def sym_power_form() -> SymPowerPolys:
    """``sym_power_classes`` with b, c1 and c2 as Poly variables.

    Built once per process, on the first call; later calls return the
    same object.  Sharing it is safe because Poly is immutable.
    """
    return sym_power_classes(*(Poly.sym(s) for s in ("b", "c1", "c2")))


def sym_power_polys(e: SurfaceChern) -> SymPowerPolys:
    """The four polynomials in b for one bundle: ``sym_power_form`` with
    E's c1 and c2 substituted."""
    if e.rank != 2:
        raise ValueError(f"symmetric-power polynomials need rank 2, got {e.rank}")
    values = {"c1": e.c1, "c2": e.c2}
    form = sym_power_form()
    return SymPowerPolys(
        *(p.as_unipoly("b", values) for p in (form.C1, form.C2, form.A1, form.A2))
    )


def sym_power_splitting_oracle(c1, c2, b: int) -> SurfaceChern:
    """Chern numbers of S^b E for E of rank 2, via formal Chern roots.

    Works in Q(c1,c2)[r]/(r^2 - c1*r + c2), where r is one Chern root
    and c1 - r the other.  The b+1 roots of S^b E are i*r + (b-i)*(c1-r);
    their elementary symmetric functions are computed directly and must
    land in the base field (root-free), which is asserted.
    """
    if b < 0:
        raise ValueError(f"symmetric power needs b >= 0, got {b}")
    if type(c1) is not int or type(c2) is not int:
        c1, c2 = Fraction(c1), Fraction(c2)
        if c1.denominator == c2.denominator == 1:
            # Integral classes: the root arithmetic stays in ints, and e2
            # is divided by 2 once, at the end.
            c1, c2 = c1.numerator, c2.numerator
    # A root a + p*r is the pair (a, p), and its square, with
    # r^2 = c1*r - c2, is (a^2 - p^2*c2, 2*a*p + p^2*c1).  Sum the roots
    # into e1 = (s, t) and their squares into (u, v).
    s = t = u = v = 0
    for i in range(b + 1):
        a, p = (b - i) * c1, 2 * i - b
        s += a
        t += p
        u += a * a - p * p * c2
        v += 2 * a * p + p * p * c1
    # e2 = (e1^2 - sum of the squares) / 2
    e2, e2_root = s * s - t * t * c2 - u, 2 * s * t + t * t * c1 - v
    assert t == 0 and e2_root == 0, "symmetric functions must be root-free"
    return SurfaceChern(b + 1, s, divided(e2, 2))


# --- symbolic threefold classes -------------------------------------------
#
# Polys in the Chern classes c1, c2, c3 of the tangent bundle and the
# hyperplane-type divisor H, of weights 1, 2, 3 and 1.  The degree
# functional maps the seven monomials of weight 3 to intersection-number
# symbols, with the two universal substitutions deg(c1 c2) = 24 and
# deg(c3) = 6 - 2h; any other term has degree 0.  No truncation is
# needed: ``rank3_twist`` of classes homogeneous of weights 1, 2, 3 by a
# class of weight 1 gives classes of weights 1, 2, 3, so every class that
# ``rr.hrr_threefold`` integrates is homogeneous of weight 3.

# c1*c2 integrates to 24 on any weak Fano threefold with vanishing higher
# structure-sheaf cohomology; c3 integrates to the topological Euler
# characteristic 6 - 2h when the Picard rank is 2.
_DEGREES = {
    (("c1", 3),): Poly.sym("c13"),
    (("H", 1), ("c1", 2)): Poly.sym("c12H"),
    (("H", 2), ("c1", 1)): Poly.sym("c1H2"),
    (("H", 3),): Poly.sym("H3"),
    (("H", 1), ("c2", 1)): Poly.sym("c2H"),
    (("c1", 1), ("c2", 1)): 24,
    (("c3", 1),): 6 - 2 * Poly.sym("h"),
}


def symbolic_degree(x: Poly) -> Poly:
    """The degree of a Poly in c1, H, c2, c3, a Poly of degree at most 1
    in the six intersection symbols h, c13, c12H, c1H2, c2H, H3."""
    out = Poly()
    for m, c in x.coeffs:
        if m in _DEGREES:
            out = out + c * _DEGREES[m]
    return out


def rank3_twist(f1, f2, f3, ell):
    """Chern classes of F(L) for F of rank 3 with classes f_i, c1(L)=ell."""
    e1 = f1 + 3 * ell
    e2 = f2 + 2 * f1 * ell + 3 * ell * ell
    e3 = f3 + f2 * ell + f1 * ell * ell + ell * ell * ell
    return e1, e2, e3


def cotangent_twist_e_classes():
    """Chern classes of Omega_X(-H + K_X) as Polys in c1, H, c2, c3.

    Derived from the generic rank-3 twist expansion with the cotangent
    classes (-c1, c2, -c3) and twist -H - c1, rather than hard-coded, so
    the known closed forms act as a test of the expansion.
    """
    c1, H, c2, c3 = (Poly.sym(s) for s in ("c1", "H", "c2", "c3"))
    return rank3_twist(-c1, c2, -c3, -H - c1)


def plane_bundle_tangent_classes(H, U, c1):
    """c1, c2, c3 of the tangent bundle of P(E) over the plane.

    c(T) = (1 + 2U - c1 H)(1 + 3H + 3H^2), from the relative Euler
    sequence and c(T_P2) = (1 + H)^3, split by degree.  H and U are the
    classes of a ring in which the plane relation holds (GradedClass, or
    Poly under ``chow.PLANE_RULE``); c1 is E's first Chern number, a
    number or an element of that ring.
    """
    rel, h3 = 2 * U - c1 * H, 3 * H
    return rel + h3, h3 * (rel + H), h3 * H * rel


def tangent_chern_plane_bundle(ambient: PlaneBase2):
    """Tangent Chern classes of P(E) over the plane, reduced in its ring."""
    return plane_bundle_tangent_classes(H_class(ambient), U_class(ambient), ambient.c1)
