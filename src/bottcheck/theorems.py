"""The three top-level obstruction evaluators.

Each evaluator computes -chi(X, Omega^2_X tensor L) for the relevant
ample twist L along two routes: the derivation path (Serre duality plus
Riemann-Roch or pushforward chains) and the closed form.  Exact
agreement of the two routes is part of the package's verification
contract.  ``compare_thm1``, ``compare_thm2`` and ``compare_thm3`` are
the one statement per theorem of what agreement means; the CLI and the
case registry both report from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from typing import NamedTuple, Optional, Tuple, Union

from .chern import (
    plane_bundle_tangent_classes,
    rank3_twist,
    sym_power_classes,
    tensor_c1,
    tensor_c2,
)
from . import chow
from .exact import Poly, UniPoly, binom
from .rr import (
    HypothesisViolation,
    chi_plane,
    chi_twisted_cotangent_symbolic,
    f_formula,
    hrr_threefold,
)

NumericsValue = Union[int, Fraction, Poly, None]

#: The fields of ``ThreefoldNumerics``, the six symbols of thm1's forms.
NUMERICS_FIELDS = ("h", "c13", "c12H", "c1H2", "c2H", "H3")


class DualPathMismatch(ArithmeticError):
    """Two routes that must agree exactly gave different results."""


class Comparison(NamedTuple):
    """One theorem's routes on one input: ``values`` maps each route's
    label to its value, and ``checks`` maps the text that names each
    compared pair of routes when they disagree ("closed and derived
    obstruction disagree") to whether they agree, in the order made."""

    values: dict
    checks: dict

    @property
    def mismatch(self) -> Optional[str]:
        """The text of the first check that failed, or None."""
        return next((text for text, agrees in self.checks.items() if not agrees), None)


@cache
def _disagreement(label: str, other_label: str) -> str:
    """The text naming the pair when two routes disagree, made once per
    pair."""
    return f"{label} and {other_label} obstruction disagree"


def _compare(label: str, value, other_label: str, other) -> Comparison:
    """Two routes that must give equal values."""
    return Comparison(
        {label: value, other_label: other},
        {_disagreement(label, other_label): value == other},
    )


@dataclass(frozen=True)
class ThreefoldNumerics:
    """Intersection numerics of a weak Fano threefold of Picard rank 2.

    Any field left as None stays symbolic in the evaluator output; a
    field may also be a Poly in other symbols.

    ``__init__`` fills the instance's ``__dict__`` in one update, as
    ``bottcases.CaseRecord``'s does; ``==``, ``hash`` and ``repr`` read
    the fields only.
    """

    h: NumericsValue = None
    c13: NumericsValue = None
    c12H: NumericsValue = None
    c1H2: NumericsValue = None
    c2H: NumericsValue = None
    H3: NumericsValue = None

    def __init__(self, h=None, c13=None, c12H=None, c1H2=None, c2H=None, H3=None):
        self.__dict__.update(
            {"h": h, "c13": c13, "c12H": c12H, "c1H2": c1H2, "c2H": c2H, "H3": H3}
        )

    def substitutions(self) -> dict:
        """The fields set, as {symbol: value} for ``subs``: an int, a
        Fraction or a Poly as it is, anything else through Fraction."""
        out = {}
        for name in NUMERICS_FIELDS:
            v = getattr(self, name)
            if v is not None:
                out[name] = v if isinstance(v, (int, Fraction, Poly)) else Fraction(v)
        return out


#: The six symbols of thm1's closed form, in the order of ``NUMERICS_FIELDS``.
_SYMBOLS = tuple(Poly.sym(name) for name in NUMERICS_FIELDS)


def check_hodge_number(h) -> None:
    """Raise ValueError unless h, which counts fibres, is an integer >= 0."""
    if h < 0:
        raise ValueError("the Hodge number h must be >= 0")
    if not isinstance(h, int) and Fraction(h).denominator != 1:
        raise ValueError("the Hodge number h must be an integer")


def thm1_closed(n: ThreefoldNumerics) -> int | Fraction | Poly:
    """-chi(X, Omega^2_X(H - K_X)) by the paper's formula
    (64 + 4h - 2c1^3 - 5(c1^2H + c1H^2) + 3c2H - 2H^3)/4 on the six
    fields: an int when the value is whole, a Fraction when it is not, and
    a Poly when a field is None (its symbol) or a Poly.  When all six are
    ints or Fractions it runs no function of the package; otherwise a
    field that is not a Poly, an int or a Fraction goes through Fraction,
    as in ``substitutions``.  It never substitutes, so it shares no
    substitution engine with ``thm1_derived``, and
    ``thm1_closed(ThreefoldNumerics())`` is the closed form in the six
    symbols."""
    h, c13, c12H, c1H2, c2H, H3 = fields = (n.h, n.c13, n.c12H, n.c1H2, n.c2H, n.H3)
    if not {int, Fraction}.issuperset(map(type, fields)):
        h, c13, c12H, c1H2, c2H, H3 = (
            s if v is None else v if isinstance(v, (int, Fraction, Poly)) else Fraction(v)
            for v, s in zip(fields, _SYMBOLS)
        )
    num = 64 + 4 * h - 2 * c13 - 5 * (c12H + c1H2) + 3 * c2H - 2 * H3
    if isinstance(num, Poly):
        return num / 4
    # A Fraction's // gives an int too.
    return num // 4 if num % 4 == 0 else Fraction(num, 4)


def thm1_derived(n: ThreefoldNumerics):
    """Same value via Serre duality and threefold Riemann-Roch on the
    twisted cotangent bundle."""
    return chi_twisted_cotangent_symbolic().subs(n.substitutions())


def compare_thm1(n: ThreefoldNumerics) -> Comparison:
    """thm1's closed and derived routes."""
    return _compare("closed", thm1_closed(n), "derived", thm1_derived(n))


def check_twists(a) -> Tuple[int, int, int]:
    """thm2's normal form (t, p, q) of the twists ``a``: t is the smallest
    repeated twist, and p <= q are the other two twists minus t, so the
    chain runs on the twists (0, 0, p, q).  Raise ValueError unless ``a``
    holds four twists, and HypothesisViolation if they are pairwise
    distinct.

    One sort does it all: in sorted order a repeat is two equal
    neighbours, and the first such pair holds t."""
    if len(a) != 4:
        raise ValueError(f"need exactly 4 twists, got {len(a)}")
    s0, s1, s2, s3 = sorted(a)
    if s0 == s1:
        return s0, s2 - s0, s3 - s0
    if s1 == s2:
        return s1, s0 - s1, s3 - s1
    if s2 == s3:
        return s2, s0 - s2, s1 - s2
    raise HypothesisViolation(f"the four twists must not be all distinct, got {a}")


@dataclass(frozen=True)
class DivisorCaseInput:
    """A divisor X in |kH + 2U| on the rank-4 bundle over the line; no
    route depends on the twist a of aH + U, so it is not an input.

    ``__init__`` fills the instance's ``__dict__`` in one update, as
    ``ThreefoldNumerics``'s does, with the fields and, outside them, the
    normal form (t, p, q) that ``check_twists`` returns for the twists,
    which ``thm2_chain`` reads; ``fields``, ``==``, ``hash``, ``repr``
    and the refusal to assign are the dataclass's own."""

    a: Tuple[int, int, int, int]
    k: int

    def __init__(self, a, k):
        self.__dict__.update({"a": a, "k": k, "_normal_form": check_twists(a)})


@cache
def thm2_chain_form() -> Poly:
    """chi(X, Omega_X(-aH - U)) as a Poly, affine in a, p, q and k.

    Eleven-term combination of f obtained from the restriction sequences
    for X in |kH + 2U| and the Euler-Jaczewski sequence on the ambient
    fourfold.  Every f(x, y) in it has an integer y, and f is affine in
    x, p and q for fixed y, so the whole chain is affine in the twist a
    and the normalised (p, q, k).  It works out to 2p + 2q + 4k, with no
    a term.

    Built once per process, on the first call; later calls return the
    same object.  Sharing it is safe because a Poly is immutable.
    """
    a, p, q, k = (Poly.sym(s) for s in "apqk")

    def f(x, y):
        return f_formula(x, y, p, q)

    return (
        2 * f(-a - 1, -1)
        + 2 * f(-a, -2)
        - 2 * f(-a, -1)
        + f(-a + p, -2)
        + f(-a + q, -2)
        - 2 * f(-a - k - 1, -3)
        - 2 * f(-a - k, -4)
        + f(-a - k, -3)
        - f(-a - k + p, -4)
        - f(-a - k + q, -4)
        + f(-a - 2 * k, -5)
    )


@lru_cache(maxsize=None)
def thm2_chain_poly(p: int, q: int, k: int) -> UniPoly:
    """The chain for one normalised (p, q, k), p <= q, as a polynomial
    in a.

    Substitutes p, q and k into ``thm2_chain_form`` and views the result
    in a, so a twist dependence in the form shows up as a degree-1
    polynomial, which ``thm2_chain`` rejects.  The cache stays: a hit is
    cheaper than the substitution and the UniPoly it builds.  Criterion
    3's grid of 10,927 checks (``bench/run.py --workload divisor-grid``)
    needs 448 keys, so 96% of its checks hit it; when 92% did, the median
    check took 5.7 us with the cache and 7.7 us without it (one run each,
    2-vCPU shared host, Python 3.11).
    """
    return thm2_chain_form().as_unipoly("a", {"p": p, "q": q, "k": k})


def thm2_chain(inp: DivisorCaseInput) -> int | Fraction:
    """-chi(X, Omega^2_X(aH + U)) along the pushforward chain.

    The chain runs on the twists (0, 0, p, q) of the input's normal form
    (t, p, q), shifted by t so that two of them vanish; the shift
    bookkeeping (8t for a shift by t) reconstructs the value on the
    original twists, which must match thm2_closed.
    """
    t, p, q = inp._normal_form
    poly = thm2_chain_poly(p, q, inp.k)
    if poly.degree:  # None for the zero polynomial, 0 for a constant
        raise DualPathMismatch(
            f"chain value unexpectedly depends on the twist: {poly.render('a')}"
        )
    num, den = poly.num, poly.den
    n = (num[0] if num else 0) + 8 * t * den
    return n if den == 1 else Fraction(n, den)


def thm2_closed(inp: DivisorCaseInput) -> int:
    return 2 * (sum(inp.a) + 2 * inp.k)


def compare_thm2(inp: DivisorCaseInput) -> Comparison:
    """thm2's chain and closed routes."""
    return _compare("chain", thm2_chain(inp), "closed", thm2_closed(inp))


@dataclass(frozen=True)
class PlaneBundleInput:
    """A rank-2 bundle on the plane, abstract (c1, c2) or split (a, b)."""

    c1: int
    c2: int
    split: Optional[Tuple[int, int]] = None

    def __post_init__(self):
        if type(self.c1) is not int or type(self.c2) is not int:
            raise ValueError(f"c1 and c2 must be ints, got ({self.c1!r}, {self.c2!r})")
        if self.split is not None:
            a, b = self.split
            if a + b != self.c1 or a * b != self.c2:
                raise ValueError(f"split pair {self.split} is inconsistent with "
                                 f"(c1, c2) = ({self.c1}, {self.c2})")

    @staticmethod
    def from_split(a: int, b: int) -> "PlaneBundleInput":
        return PlaneBundleInput(a + b, a * b, (a, b))


@dataclass(frozen=True)
class QPolys:
    """Q1, Q2, Q3 and Q = Q1 + Q2 - Q3; UniPolys in b from ``thm3_Q``,
    Polys in (b, c1, c2) in ``thm3_Q_form``."""

    Q1: UniPoly | Poly
    Q2: UniPoly | Poly
    Q3: UniPoly | Poly
    Q: UniPoly | Poly


@cache
def thm3_Q_form() -> QPolys:
    """The Q-polynomials, Q(b) = chi(X, Omega_X(-H + bU)), as Polys in
    b, c1 and c2.

    Pushforward route: chi of the three bundles on the plane that the
    relative cotangent sequence leaves, each from the symmetric-power
    Chern polynomials (at b and at b - 1), the surface tensor formula and
    surface Riemann-Roch, all run on Poly variables.

    Built once per process, on the first call; later calls return the
    same object.  Sharing it is safe because Poly is immutable.
    """
    b, c1, c2 = (Poly.sym(s) for s in ("b", "c1", "c2"))
    sp, spm = sym_power_classes(b, c1, c2), sym_power_classes(b - 1, c1, c2)
    a1, a2, a1m, a2m = sp.A1, sp.A2, spm.A1, spm.A2

    # Omega_P2 tensor (S^b E)(-1)
    q1 = chi_plane(
        2 * (b + 1),
        tensor_c1(2, b + 1, -3, a1),
        tensor_c2(2, b + 1, -3, 3, a1, a2),
    )
    # E tensor (S^{b-1} E)(-1)
    q2 = chi_plane(
        2 * b,
        tensor_c1(2, b, c1, a1m),
        tensor_c2(2, b, c1, c2, a1m, a2m),
    )
    # (S^b E)(-1)
    q3 = chi_plane(b + 1, a1, a2)
    return QPolys(q1, q2, q3, q1 + q2 - q3)


@cache
def thm3_hrr_form() -> Poly:
    """chi(X, Omega_X(-H + bU)) by intrinsic Riemann-Roch, as a Poly in
    b, c1 and c2.

    Hirzebruch-Riemann-Roch on X = P(E) in its Chow ring, with E's c1 and
    c2 left symbolic through ``chow.PLANE_RULE``: the tangent classes
    from ``plane_bundle_tangent_classes``, Omega_X(-H + bU) from
    ``rank3_twist``, and as degree map the coefficient of H^2 U.  It
    equals ``thm3_Q_form().Q``, a fact the test suite checks as a
    polynomial identity.

    Built once per process, on the first call; later calls return the
    same object.  Sharing it is safe because Poly is immutable.
    """
    b, c1, H, U = (Poly.sym(s, chow.PLANE_RULE) for s in ("b", "c1", "H", "U"))
    tc1, tc2, tc3 = plane_bundle_tangent_classes(H, U, c1)
    e1, e2, e3 = rank3_twist(-tc1, tc2, -tc3, b * U - H)
    return hrr_threefold(
        tc1, tc2, e1, e2, e3, 3, lambda x: x.coeff({"H": 2, "U": 1})
    )


def thm3_Q(inp: PlaneBundleInput) -> QPolys:
    """The Q-polynomials of one bundle: ``thm3_Q_form`` at its c1, c2."""
    values = {"c1": inp.c1, "c2": inp.c2}
    form = thm3_Q_form()
    return QPolys(
        *(p.as_unipoly("b", values) for p in (form.Q1, form.Q2, form.Q3, form.Q))
    )


def thm3_value(inp: PlaneBundleInput) -> int:
    """-chi(X, Omega^2_X(H + U)) = c2 - binom(c1, 2)."""
    return inp.c2 - inp.c1 * (inp.c1 - 1) // 2


def thm3_hrr_crosscheck(inp: PlaneBundleInput, b: int) -> int | Fraction:
    """chi(X, Omega_X(-H + bU)) computed intrinsically in the Chow ring
    of the plane bundle: ``thm3_hrr_form`` at (b, c1, c2).  Agrees with
    Q(b) from the pushforward route."""
    return thm3_hrr_form().subs({"b": b, "c1": inp.c1, "c2": inp.c2})


def thm3_hrr_poly(inp: PlaneBundleInput) -> UniPoly:
    """``thm3_hrr_form`` at one bundle's c1, c2, as a polynomial in b, to
    compare with ``thm3_Q(inp).Q``."""
    return thm3_hrr_form().as_unipoly("b", {"c1": inp.c1, "c2": inp.c2})


def compare_thm3(inp: PlaneBundleInput) -> Comparison:
    """thm3's routes: Q(-1) from the pushforward Q-polynomials against the
    closed form, then the intrinsic Riemann-Roch polynomial in b
    (``"hrr"``) against Q(b), as polynomials.  ``"Q"`` is the
    ``QPolys``."""
    qs, hrr = thm3_Q(inp), thm3_hrr_poly(inp)
    values, checks = _compare("Q(-1)", qs.Q(-1), "closed", thm3_value(inp))
    checks["intrinsic Riemann-Roch and Q(b) disagree as polynomials in b"] = hrr == qs.Q
    return Comparison({"Q": qs, **values, "hrr": hrr}, checks)


def thm3_h0_split(a: int, b: int) -> int:
    """h^0(X, Omega^2_X(H + U)) for the split bundle O(a) + O(b).

    Equals h^2 of E(-c1 - 1) on the plane, computed summand by summand
    with h^2(O(m)) = binom(-m - 1, 2) for m <= -3 and 0 otherwise.
    """

    def h2_line(m: int) -> int:
        return binom(-m - 1, 2) if m <= -3 else 0

    return h2_line(-b - 1) + h2_line(-a - 1)
