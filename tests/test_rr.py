from fractions import Fraction

import pytest

from bottcheck.chern import H_SYM, SymClass
from bottcheck.exact import T, UniPoly, binom
from bottcheck.rr import (
    HypothesisViolation,
    chi_plane,
    euler_jaczewski_chi,
    f_formula,
    f_splitting_oracle,
    hrr_surface,
    hrr_threefold_symbolic,
    normalized_pq,
    rr_curve,
)
from bottcheck.chern import SurfaceChern


class TestHrrThreefoldSymbolic:
    def test_structure_sheaf(self):
        zero = SymClass()
        chi = hrr_threefold_symbolic(zero, zero, zero, 1)
        assert chi == 1

    def test_h_twist_with_vanishing_degrees(self):
        zero = SymClass()
        chi = hrr_threefold_symbolic(H_SYM, zero, zero, 1)
        value = chi.subs({s: 0 for s in chi.symbols()})
        assert value == 1


class TestHrrSurface:
    def test_structure_sheaf(self):
        assert hrr_surface(SurfaceChern(1, 0, 0)) == 1

    @pytest.mark.parametrize("d", range(6))
    def test_line_bundles_count_monomials(self, d):
        assert hrr_surface(SurfaceChern(1, d, 0)) == binom(d + 2, 2)

    def test_rank_two(self):
        assert hrr_surface(SurfaceChern(2, 3, 3)) == 8

    def test_additive_over_split_sums(self):
        for a in range(-3, 4):
            for b in range(-3, 4):
                whole = hrr_surface(SurfaceChern(2, a + b, a * b))
                parts = hrr_surface(SurfaceChern(1, a, 0)) + hrr_surface(
                    SurfaceChern(1, b, 0)
                )
                assert whole == parts


class TestRrCurve:
    def test_line_bundles(self):
        for d in range(-3, 4):
            assert rr_curve(1, d) == d + 1

    def test_rank_four(self):
        p, q, x = 1, 2, 5
        assert rr_curve(4, p + q, x) == (p + q) + 4 * (x + 1)

    def test_rank_zero(self):
        assert rr_curve(0, 0) == 0


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
        assert isinstance(poly, UniPoly) and poly.is_zero()

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


class TestNormalizedPq:
    def test_extracts_remaining_pair(self):
        assert sorted(normalized_pq((0, 1, 0, 2))) == [1, 2]

    def test_extra_zeros_ok(self):
        assert normalized_pq((0, 0, 0, 0)) == (0, 0)

    def test_rejects_without_two_zeros(self):
        with pytest.raises(HypothesisViolation):
            normalized_pq((0, 1, 2, 3))


def test_chi_plane_polynomial_inputs():
    assert chi_plane(T + 1, UniPoly(), UniPoly()) == T + 1


def test_splitting_oracle_sums_ints_into_one_fraction():
    for x, y, p, q in [(-5, 300, 3, -2), (7, 41, 0, 11), (0, 0, 0, 0)]:
        got = f_splitting_oracle(x, y, p, q)
        assert type(got) is Fraction and got == f_formula(x, y, p, q)
