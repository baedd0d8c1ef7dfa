import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from bottcheck.chern import sym_power_polys, sym_power_splitting_oracle, SurfaceChern
from bottcheck.chow import (
    GradedClass,
    H_class,
    LineBase4,
    PlaneBase2,
    U_class,
    unit,
)
from bottcheck.rr import chi_plane, hrr_threefold
from bottcheck.chern import tangent_chern_plane_bundle


def U4(ambient):
    u = U_class(ambient)
    return u * u * u * u


class TestReduce:
    def test_trivial_bundle_over_line(self):
        amb = LineBase4((0, 0, 0, 0))
        assert U4(amb).is_zero()

    def test_line_relation(self):
        for p, q in [(1, 2), (0, 3), (2, 2)]:
            amb = LineBase4((0, 0, p, q))
            h, u = H_class(amb), U_class(amb)
            assert U4(amb) == (p + q) * h * u * u * u

    def test_plane_relation(self):
        for c1, c2 in [(1, 0), (3, 3), (-2, 1)]:
            amb = PlaneBase2(c1, c2)
            h, u = H_class(amb), U_class(amb)
            assert u * u * u == (c1 * c1 - c2) * h * h * u

    def test_idempotent(self):
        amb = PlaneBase2(3, 3)
        raw = {(0, 3): Fraction(2), (1, 2): Fraction(-1), (4, 0): Fraction(7)}
        once = GradedClass(amb, raw)
        again = GradedClass(amb, dict(once.coeffs))
        assert once == again


class TestMultiply:
    def test_h_squared_on_plane(self):
        amb = PlaneBase2(1, 1)
        h = H_class(amb)
        assert (h * h).coeff(2, 0) == 1

    def test_h_squared_on_line_vanishes(self):
        amb = LineBase4((0, 0, 1, 2))
        h = H_class(amb)
        assert (h * h).is_zero()

    def test_u_squared_relation(self):
        amb = PlaneBase2(3, 3)
        h, u = H_class(amb), U_class(amb)
        assert u * u == 3 * h * u - 3 * h * h

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            H_class(PlaneBase2(1, 1)) * H_class(PlaneBase2(1, 2))


class TestDegree:
    def test_line_normalization(self):
        amb = LineBase4((0, 0, 1, 2))
        h, u = H_class(amb), U_class(amb)
        assert (h * u * u * u).degree() == 1

    def test_plane_u_cubed(self):
        amb = PlaneBase2(1, 0)
        u = U_class(amb)
        assert (u * u * u).degree() == 1

    def test_plane_h_cubed(self):
        amb = PlaneBase2(1, 0)
        h = H_class(amb)
        assert (h * h * h).degree() == 0


def _random_class(rng, amb):
    raw = {}
    for _ in range(rng.randrange(1, 5)):
        i, j = rng.randrange(0, 4), rng.randrange(0, 5)
        raw[(i, j)] = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
    return GradedClass(amb, raw)


@pytest.mark.parametrize(
    "amb", [LineBase4((0, 0, 2, 3)), PlaneBase2(3, 3), PlaneBase2(-1, 2)]
)
def test_ring_axioms(amb):
    rng = random.Random(20240817)
    for _ in range(100):
        x, y, z = (_random_class(rng, amb) for _ in range(3))
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x * unit(amb) == x


@pytest.mark.parametrize("split", [(0, 0), (1, 2), (-1, 3), (2, 2)])
def test_pushforward_convention_pin(split):
    # chi of y*U computed intrinsically must equal chi of the y-th
    # symmetric power of the split bundle downstairs; this pins the sign
    # of the rank relation.
    a, b = split
    amb = PlaneBase2(a + b, a * b)
    tc1, tc2, tc3 = tangent_chern_plane_bundle(amb)
    sp = sym_power_polys(SurfaceChern(2, a + b, a * b))
    for y in range(5):
        ell = y * U_class(amb)
        zero = 0 * ell
        chi = hrr_threefold(tc1, tc2, ell, zero, zero, 1, lambda x: x.degree())
        downstairs = chi_plane(y + 1, sp.C1(y), sp.C2(y))
        assert chi == downstairs


@pytest.mark.parametrize("split", [(0, 0), (1, 2), (-1, 3)])
def test_relative_tangent_is_line_bundle(split):
    # c2 of the dual relative Euler bundle (U - aH)(U - bH) reduces to 0.
    a, b = split
    amb = PlaneBase2(a + b, a * b)
    h, u = H_class(amb), U_class(amb)
    assert ((u - a * h) * (u - b * h)).is_zero()


class TestRender:
    def test_example(self):
        amb = PlaneBase2(3, 3)
        h, u = H_class(amb), U_class(amb)
        assert (u * u).render() == "3*H*U - 3*H^2"

    def test_zero(self):
        amb = PlaneBase2(3, 3)
        h = H_class(amb)
        assert (h * h * h).render() == "0"

    def test_unit(self):
        assert unit(PlaneBase2(0, 0)).render() == "1"


def _pending_reduce(ambient, raw):
    """The pending-list reduction the product used to re-run on every
    constructor call; kept here as the oracle for the one-pass product."""
    out = {}
    pending = [((i, j), Fraction(c)) for (i, j), c in raw.items() if c != 0]
    if isinstance(ambient, LineBase4):
        s1 = sum(ambient.twists)
        while pending:
            (i, j), c = pending.pop()
            if i >= 2:
                continue
            if j >= 4:
                if i >= 1:
                    continue
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
    return tuple(sorted((m, c) for m, c in out.items() if c != 0))


def _raw_product(xs, ys):
    out = {}
    for (i1, j1), a in xs.items():
        for (i2, j2), b in ys.items():
            m = (i1 + i2, j1 + j2)
            out[m] = out.get(m, 0) + Fraction(a) * Fraction(b)
    return out


def _well_formed(x):
    monomials = [m for m, _ in x.coeffs]
    return (
        monomials == sorted(set(monomials))
        and all(type(c) is Fraction and c != 0 for _, c in x.coeffs)
    )


ambients = st.one_of(
    st.builds(PlaneBase2, st.integers(-5, 5), st.integers(-5, 5)),
    st.builds(
        lambda t: LineBase4(tuple(t)),
        st.lists(st.integers(-4, 4), min_size=4, max_size=4),
    ),
)
raws = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 6)),
    st.one_of(
        st.fractions(min_value=-9, max_value=9, max_denominator=6),
        st.integers(-9, 9),
    ),
    max_size=6,
)


class TestOnePassProduct:
    @given(ambients, raws)
    def test_constructor_matches_pending_reduction(self, amb, raw):
        x = GradedClass(amb, raw)
        assert x.coeffs == _pending_reduce(amb, raw)
        assert _well_formed(x)

    @given(ambients, raws, raws)
    def test_product_matches_pending_reduction(self, amb, raw1, raw2):
        x, y = GradedClass(amb, raw1), GradedClass(amb, raw2)
        assert (x * y).coeffs == _pending_reduce(amb, _raw_product(raw1, raw2))
        assert (x * y).coeffs == _pending_reduce(amb, _raw_product(
            dict(x.coeffs), dict(y.coeffs)))

    @given(ambients, raws, raws, st.integers(-3, 3))
    def test_results_stay_well_formed(self, amb, raw1, raw2, n):
        x, y = GradedClass(amb, raw1), GradedClass(amb, raw2)
        for z in (x * y, x + y, x - y, y - x, -x, n * x, x * Fraction(n, 2),
                  x + n, n - x, x ** 3):
            assert _well_formed(z)
            assert z == GradedClass(amb, dict(z.coeffs))


class TestPower:
    @pytest.mark.parametrize(
        "amb", [LineBase4((0, 1, 1, 3)), PlaneBase2(3, 3), PlaneBase2(-2, 5)]
    )
    def test_matches_repeated_product(self, amb):
        x = 2 - H_class(amb) + Fraction(3, 2) * U_class(amb)
        repeated = unit(amb)
        for n in range(9):
            assert x ** n == repeated
            repeated = repeated * x

    def test_zeroth_power_is_unit(self):
        amb = PlaneBase2(1, 1)
        assert GradedClass(amb) ** 0 == unit(amb)
        assert H_class(amb) ** 0 == unit(amb)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            U_class(PlaneBase2(1, 1)) ** -1


# --- integer numerators over one denominator, against the Fraction oracle ---


def _fraction_product(ambient, xs, ys):
    """The Fraction-coefficient product of two reduced term lists that
    integer numerators replaced, kept as the oracle."""
    top_i, top_j = ambient.top
    out = {}
    for (i1, j1), a in xs:
        for (i2, j2), b in ys:
            i = i1 + i2
            if i > top_i:
                continue
            m = (i, j1 + j2)
            out[m] = out.get(m, Fraction(0)) + Fraction(a) * Fraction(b)
    over = [m for m in out if m[1] > top_j]
    if isinstance(ambient, PlaneBase2):
        for m in over:
            c, i = out.pop(m), m[0]
            if i + 1 <= top_i:
                out[(i + 1, 1)] = out.get((i + 1, 1), Fraction(0)) + c * ambient.c1
            if i + 2 <= top_i:
                out[(i + 2, 0)] = out.get((i + 2, 0), Fraction(0)) - c * ambient.c2
    else:
        s1 = sum(ambient.twists)
        for m in over:
            c = out.pop(m)
            if m == (0, 4):
                out[(1, 3)] = out.get((1, 3), Fraction(0)) + c * s1
    return tuple(sorted((m, c) for m, c in out.items() if c != 0))


def _fraction_sum(xs, ys, sign=1):
    out = dict(xs)
    for m, c in ys:
        out[m] = out.get(m, Fraction(0)) + sign * c
    return tuple(sorted((m, c) for m, c in out.items() if c != 0))


def _fraction_scale(xs, n):
    return tuple((m, c * n) for m, c in xs if c * n != 0)


def assert_canonical(x):
    """Terms sorted, nonzero and int, over a positive den in lowest terms;
    coeffs is the same terms as Fractions."""
    monomials = [m for m, _ in x.terms]
    assert monomials == sorted(set(monomials))
    assert all(type(c) is int and c != 0 for _, c in x.terms)
    assert type(x.den) is int and x.den > 0
    assert gcd(x.den, *(c for _, c in x.terms)) == 1
    assert x.terms or x.den == 1
    assert all(type(c) is Fraction for _, c in x.coeffs)
    assert x.coeffs == tuple((m, Fraction(c, x.den)) for m, c in x.terms)


scalars = st.one_of(
    st.integers(-9, 9), st.fractions(min_value=-9, max_value=9, max_denominator=6)
)


class TestIntegerNumerators:
    @given(ambients, raws, raws)
    def test_product_matches_fraction_product(self, amb, raw1, raw2):
        x, y = GradedClass(amb, raw1), GradedClass(amb, raw2)
        z = x * y
        assert_canonical(z)
        assert z.coeffs == _fraction_product(amb, x.coeffs, y.coeffs)

    @given(ambients, raws, raws, scalars)
    def test_other_operations_match_fraction_arithmetic(self, amb, raw1, raw2, n):
        x, y = GradedClass(amb, raw1), GradedClass(amb, raw2)
        xs, ys = x.coeffs, y.coeffs
        for got, want in (
            (x + y, _fraction_sum(xs, ys)),
            (x - y, _fraction_sum(xs, ys, -1)),
            (-x, _fraction_scale(xs, -1)),
            (x * n, _fraction_scale(xs, n)),
            (n * x, _fraction_scale(xs, n)),
            (x + n, _fraction_sum(xs, (((0, 0), Fraction(n)),))),
            (n - x, _fraction_sum((((0, 0), Fraction(n)),), xs, -1)),
        ):
            assert_canonical(got)
            assert got.coeffs == want
        assert x.degree() == dict(xs).get(amb.top, Fraction(0))
        for i in range(3):
            for j in range(4):
                assert x.coeff(i, j) == dict(xs).get((i, j), Fraction(0))

    @given(ambients, raws, st.integers(0, 5))
    def test_power_matches_fraction_products(self, amb, raw, n):
        x = GradedClass(amb, raw)
        want = (((0, 0), Fraction(1)),)
        for _ in range(n):
            want = _fraction_product(amb, want, x.coeffs)
        assert_canonical(x ** n)
        assert (x ** n).coeffs == want

    @given(ambients, raws, st.integers(1, 12))
    def test_eq_and_hash_agree(self, amb, raw, k):
        x = GradedClass(amb, raw)
        # the same value reached along another route
        u = U_class(amb)
        again = (x * k + u) * Fraction(1, k) - u * Fraction(1, k)
        assert again == x and hash(again) == hash(x)
        assert (again.terms, again.den) == (x.terms, x.den)

    def test_non_integer_parameters_rejected(self):
        with pytest.raises(ValueError):
            PlaneBase2(Fraction(1, 2), 0)
        with pytest.raises(ValueError):
            PlaneBase2(0, Fraction(-7, 3))
        with pytest.raises(ValueError):
            LineBase4((0, 0, Fraction(1, 3), 2))
        with pytest.raises(ValueError):
            PlaneBase2("1", 0)

    def test_integral_fraction_parameters_become_ints(self):
        amb = PlaneBase2(Fraction(4, 2), Fraction(3))
        assert amb == PlaneBase2(2, 3)
        assert type(amb.c1) is int and type(amb.c2) is int
        assert all(type(a) is int for a in LineBase4((Fraction(2), 0, 0, 1)).twists)

    def test_zero_class_is_stored_as_empty_over_one(self):
        amb = PlaneBase2(3, 3)
        h = H_class(amb)
        for x in (GradedClass(amb), h * h * h, h - h,
                  Fraction(1, 3) * h - h * Fraction(1, 3)):
            assert (x.terms, x.den) == ((), 1) and x.coeffs == ()


def _fraction_splitting_oracle(c1, c2, b):
    """sym_power_splitting_oracle as it was before integer root
    arithmetic, kept as the oracle for its Fraction path."""
    c1, c2 = Fraction(c1), Fraction(c2)

    def mul(x, y):
        a, p = x
        c, q = y
        return (a * c - p * q * c2, a * q + p * c + p * q * c1)

    roots = [((b - i) * c1, Fraction(2 * i - b)) for i in range(b + 1)]
    e1 = (sum(r[0] for r in roots), sum(r[1] for r in roots))
    sq = (Fraction(0), Fraction(0))
    for r in roots:
        s = mul(r, r)
        sq = (sq[0] + s[0], sq[1] + s[1])
    e1sq = mul(e1, e1)
    e2 = ((e1sq[0] - sq[0]) / 2, (e1sq[1] - sq[1]) / 2)
    assert e1[1] == 0 and e2[1] == 0
    return SurfaceChern(b + 1, e1[0], e2[0])


@given(scalars, scalars, st.integers(0, 8))
def test_splitting_oracle_matches_fraction_oracle(c1, c2, b):
    # Non-integral (c1, c2) take the Fraction path, integral ones the int
    # path; both must give what the Fraction-only oracle gave, as ints on
    # the int path.
    got = sym_power_splitting_oracle(c1, c2, b)
    want = _fraction_splitting_oracle(c1, c2, b)
    assert got == want
    integral = Fraction(c1).denominator == Fraction(c2).denominator == 1
    assert {type(got.c1), type(got.c2)} == {int if integral else Fraction}


@given(st.fractions(max_denominator=7).filter(lambda c: c.denominator > 1),
       st.integers(-9, 9), st.integers(0, 8))
def test_splitting_oracle_non_integral_classes(c1, c2, b):
    for args in ((c1, c2), (c2, c1), (c1, c1)):
        assert sym_power_splitting_oracle(*args, b) == _fraction_splitting_oracle(*args, b)
