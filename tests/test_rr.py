from fractions import Fraction

import pytest

from bottcheck.chern import symbolic_degree
from bottcheck.exact import Poly, binom
from bottcheck.rr import (
    chi_plane,
    euler_jaczewski_chi,
    f_formula,
    f_splitting_oracle,
    hrr_threefold,
)
from fraction_poly import FractionPoly, T

C1, C2 = Poly.sym("c1"), Poly.sym("c2")


class TestHrrThreefoldSymbolic:
    def test_structure_sheaf(self):
        zero = Poly()
        chi = hrr_threefold(C1, C2, zero, zero, zero, 1, symbolic_degree)
        assert chi == 1

    def test_h_twist_with_vanishing_degrees(self):
        zero = Poly()
        chi = hrr_threefold(C1, C2, Poly.sym("H"), zero, zero, 1, symbolic_degree)
        value = chi.subs({s: 0 for m, _ in chi.terms for s, _ in m})
        assert value == 1


class TestHrrSurface:
    def test_structure_sheaf(self):
        chi = chi_plane(1, Fraction(0), 0)
        assert type(chi) is Fraction and chi == 1

    @pytest.mark.parametrize("d", range(6))
    def test_line_bundles_count_monomials(self, d):
        assert chi_plane(1, Fraction(d), 0) == binom(d + 2, 2)

    def test_rank_two(self):
        assert chi_plane(2, Fraction(3), 3) == 8

    def test_additive_over_split_sums(self):
        for a in range(-3, 4):
            for b in range(-3, 4):
                whole = chi_plane(2, Fraction(a + b), a * b)
                parts = chi_plane(1, Fraction(a), 0) + chi_plane(1, Fraction(b), 0)
                assert whole == parts


class TestFFormula:
    @pytest.mark.parametrize("p,q", [(0, 0), (1, 2), (4, 4)])
    def test_structure_sheaf(self, p, q):
        assert f_formula(0, 0, p, q) == 1

    def test_vanishing_band(self):
        for y in (-1, -2, -3):
            for x in range(-10, 11):
                for p in range(5):
                    for q in range(5):
                        assert f_formula(x, y, p, q) == 0

    def test_example(self):
        assert f_formula(1, 1, 1, 2) == 11  # 2*chi(O(1)) + chi(O(2)) + chi(O(3))

    def test_polynomial_twist_argument(self):
        poly = f_formula(-T - 1, -1, 1, 2)
        assert isinstance(poly, FractionPoly) and poly.coeffs == ()

    def test_polynomial_y_argument(self):
        poly = f_formula(0, T, 1, 2)
        for y in range(5):
            assert poly(y) == f_formula(0, y, 1, 2)


class TestFSplittingOracle:
    def test_four_trivial_summands(self):
        assert f_splitting_oracle(0, 1, 0, 0) == 4

    def test_single_summand(self):
        assert f_splitting_oracle(2, 0, 5, 7) == 3

    def test_symmetric_square(self):
        assert f_splitting_oracle(-1, 2, 1, 1) == f_formula(-1, 2, 1, 1)

    def test_matches_formula_on_grid(self):
        for p in range(5):
            for q in range(5):
                for x in range(-5, 6):
                    for y in range(9):
                        assert f_splitting_oracle(x, y, p, q) == f_formula(
                            x, y, p, q
                        )

    def test_domain(self):
        with pytest.raises(ValueError):
            f_splitting_oracle(0, -1, 0, 0)


class TestEulerJaczewski:
    @pytest.mark.parametrize("p,q", [(0, 0), (1, 2), (3, 3)])
    def test_cotangent_chi_is_minus_picard_rank(self, p, q):
        assert euler_jaczewski_chi(0, 0, p, q) == -2

    def test_all_terms_in_vanishing_band(self):
        # with y = -1 and 0 <= p, q <= 2 every f-argument has y in [-3, -1]
        for p in range(3):
            for q in range(3):
                assert euler_jaczewski_chi(0, -1, p, q) == 0

    def test_product_fourfold(self):
        assert euler_jaczewski_chi(1, 1, 0, 0) == 0


def test_chi_plane_polynomial_inputs():
    assert chi_plane(T + 1, FractionPoly(), FractionPoly()) == T + 1


def test_splitting_oracle_sums_ints_into_an_int():
    for x, y, p, q in [(-5, 300, 3, -2), (7, 41, 0, 11), (0, 0, 0, 0)]:
        got = f_splitting_oracle(x, y, p, q)
        assert type(got) is int and got == f_formula(x, y, p, q)
