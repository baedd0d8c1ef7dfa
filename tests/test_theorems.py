from fractions import Fraction
from itertools import product

import pytest

from bottcheck.exact import Poly, binom
from bottcheck.rr import HypothesisViolation
from bottcheck.theorems import (
    DivisorCaseInput,
    PlaneBundleInput,
    ThreefoldNumerics,
    thm1_closed,
    thm1_derived,
    thm2_chain,
    thm2_chain_poly,
    thm2_closed,
    thm3_Q,
    thm3_h0_split,
    thm3_hrr_crosscheck,
    thm3_value,
)


class TestThm1:
    def test_symbolic_identity(self):
        n = ThreefoldNumerics()
        assert thm1_derived(n) == thm1_closed(n)

    def test_closed_form_coefficients(self):
        form = thm1_closed(ThreefoldNumerics())
        assert form.coeff(dict.fromkeys(("h", "c13", "c12H", "c1H2", "c2H", "H3"), 0)) == 16
        assert form.coeff({"h": 1}) == 1
        assert form.coeff({"c13": 1}) == Fraction(-1, 2)
        assert form.coeff({"c12H": 1}) == Fraction(-5, 4)
        assert form.coeff({"c1H2": 1}) == Fraction(-5, 4)
        assert form.coeff({"c2H": 1}) == Fraction(3, 4)
        assert form.coeff({"H3": 1}) == Fraction(-1, 2)

    def test_constant_term(self):
        n = ThreefoldNumerics(h=0, c13=0, c12H=0, c1H2=0, c2H=0, H3=0)
        assert thm1_derived(n) == 16

    def test_del_pezzo_6_specialization(self):
        n = ThreefoldNumerics(c12H=6, c1H2=0, c2H=6, H3=0)
        expected = 13 + Poly.sym("h") - Poly.sym("c13") / 2
        assert thm1_closed(n) == expected
        assert thm1_derived(n) == expected

    @pytest.mark.parametrize("d", range(1, 7))
    def test_conic_bundle_specialization(self, d):
        n = ThreefoldNumerics(c12H=12 - d, c1H2=2, c2H=d + 6, H3=0)
        expected = 2 * d + 3 + Poly.sym("h") - Poly.sym("c13") / 2
        assert thm1_closed(n) == expected

    def test_table8_no1(self):
        n = ThreefoldNumerics(h=0, c13=4, c12H=6, c1H2=6, c2H=24, H3=6)
        assert thm1_closed(n) == 14
        assert thm1_derived(n) == 14

    def test_half_integers_permitted(self):
        n = ThreefoldNumerics(h=0, c13=1, c12H=0, c1H2=0, c2H=0, H3=0)
        assert thm1_closed(n) == Fraction(31, 2)


class TestThm2:
    def test_two_coincident_pairs(self):
        inp = DivisorCaseInput((0, 0, 1, 1), 0)
        assert thm2_chain(inp) == 4
        assert thm2_closed(inp) == 4

    def test_trivial_bundle_with_k(self):
        inp = DivisorCaseInput((0, 0, 0, 0), 1)
        assert thm2_chain(inp) == 4

    def test_k_negative(self):
        inp = DivisorCaseInput((0, 0, 1, 2), -1)
        assert thm2_chain(inp) == 2
        assert thm2_closed(inp) == 2

    def test_shift_bookkeeping(self):
        inp = DivisorCaseInput((1, 1, 1, 1), 0)
        assert thm2_closed(inp) == 8
        assert thm2_chain(inp) == 8

    def test_twist_coefficient_vanishes(self):
        for p, q, k in product(range(4), range(4), range(-2, 3)):
            poly = thm2_chain_poly(p, q, k)
            assert poly.degree in (None, 0)
            assert poly(0) == 2 * (p + q + 2 * k)

    def test_all_distinct_rejected(self):
        with pytest.raises(HypothesisViolation):
            DivisorCaseInput((0, 1, 2, 3), 0)

    def test_divisor_input_keeps_its_record_contract(self):
        # Its own __init__ fills __dict__ in one update; the rest is
        # exact.immutable's, as for bottcases.CaseRecord.
        assert DivisorCaseInput._fields == ("a", "k")
        inp = DivisorCaseInput((0, 0, 1, 2), 3)
        assert inp == DivisorCaseInput(a=(0, 0, 1, 2), k=3)
        assert hash(inp) == hash(DivisorCaseInput((0, 0, 1, 2), 3))
        assert inp != DivisorCaseInput((0, 0, 1, 2), 4)
        assert repr(inp) == "DivisorCaseInput(a=(0, 0, 1, 2), k=3)"
        assert vars(inp) == {"a": (0, 0, 1, 2), "k": 3, "_normal_form": (0, 1, 2)}
        with pytest.raises(AttributeError):
            inp.k = 4
        with pytest.raises(AttributeError):
            del inp.a
        with pytest.raises(TypeError, match="missing 1 required positional argument: 'k'"):
            DivisorCaseInput((0, 0, 1, 2))
        with pytest.raises(TypeError, match="unexpected keyword argument 'b'"):
            DivisorCaseInput((0, 0, 1, 2), 3, b=1)

    @pytest.mark.parametrize("a, error, text", [
        ((0, 1, 2, 3), HypothesisViolation,
         "the four twists must not be all distinct, got (0, 1, 2, 3)"),
        ((0, 0, 1), ValueError, "need exactly 4 twists, got 3"),
        ((0, 0, 1, 1, 2), ValueError, "need exactly 4 twists, got 5"),
    ])
    def test_divisor_input_refuses_what_check_twists_refuses(self, a, error, text):
        with pytest.raises(error) as err:
            DivisorCaseInput(a, 0)
        assert str(err.value) == text

    def test_grid_agreement(self):
        # two entries forced equal, all in [-3, 3], k in [-3, 3]
        for base in product(range(-3, 4), repeat=3):
            a = (base[0],) + base
            for k in range(-3, 4):
                inp = DivisorCaseInput(a, k)
                assert thm2_chain(inp) == thm2_closed(inp)


PLANE_GRID = [(c1, c2) for c1 in range(-3, 4) for c2 in range(-3, 4)]


class TestThm3:
    @pytest.mark.parametrize("c1,c2", PLANE_GRID)
    def test_q_values_at_minus_one(self, c1, c2):
        qs = thm3_Q(PlaneBundleInput(c1, c2))
        assert qs.Q1(-1) == 0
        assert qs.Q3(-1) == 0
        assert qs.Q2(-1) == c2 - binom(c1, 2)
        assert qs.Q(-1) == thm3_value(PlaneBundleInput(c1, c2))

    def test_case_33(self):
        assert thm3_value(PlaneBundleInput(3, 3)) == 0

    def test_trivial_bundle(self):
        assert thm3_value(PlaneBundleInput(0, 0)) == 0

    def test_value_11(self):
        assert thm3_value(PlaneBundleInput(1, 1)) == 1

    def test_crosscheck_agrees_with_q(self):
        for c1 in range(-2, 4):
            for c2 in range(-2, 4):
                inp = PlaneBundleInput(c1, c2)
                q = thm3_Q(inp).Q
                for b in range(-3, 7):
                    assert thm3_hrr_crosscheck(inp, b) == q(b)

    def test_crosscheck_at_minus_one_is_the_obstruction(self):
        for c1, c2 in [(3, 3), (1, 0), (0, 0), (2, -1)]:
            inp = PlaneBundleInput(c1, c2)
            assert thm3_hrr_crosscheck(inp, -1) == thm3_value(inp)

    def test_split_consistency_check(self):
        with pytest.raises(ValueError):
            PlaneBundleInput(3, 3, (0, 3))

    @pytest.mark.parametrize("c1, c2", [(Fraction(7, 2), 3), (3, Fraction(3)), (True, 0)])
    def test_chern_numbers_that_are_not_ints_are_refused(self, c1, c2):
        """thm3's closed form floors c1(c1 - 1)/2, so c1 = 7/2 would give
        -1 against Q(-1) = -11/8: a false mismatch, not a refusal."""
        with pytest.raises(ValueError, match="c1 and c2 must be ints"):
            PlaneBundleInput(c1, c2)

    def test_from_split(self):
        inp = PlaneBundleInput.from_split(0, 3)
        assert (inp.c1, inp.c2) == (3, 0)


class TestH0Split:
    def test_o0_o3(self):
        assert thm3_h0_split(0, 3) == 3

    def test_trivial(self):
        assert thm3_h0_split(0, 0) == 0

    def test_o1_o1(self):
        assert thm3_h0_split(1, 1) == 0

    def test_chi_h0_consistency_instance(self):
        # For O + O(3): -chi = -3, so chi(Omega^2(H+U)) = 3 = h^0,
        # consistent with vanishing higher cohomology in this instance.
        inp = PlaneBundleInput.from_split(0, 3)
        assert -thm3_value(inp) == thm3_h0_split(0, 3)
