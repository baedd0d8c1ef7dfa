"""thm2's chain on a cache hit: the normalising shift from one sort, the
(p, q) boundary check on a list, and one Fraction for the result.  The
oracles are the earlier route, copied here as it was: the shift by
``min``/``count``, ``normalized_pq`` on a tuple, and ``poly(0) + 8*t``."""

import cProfile
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from bottcheck import theorems
from bottcheck.exact import T, UniPoly
from bottcheck.rr import HypothesisViolation, normalized_pq
from bottcheck.theorems import (
    DivisorCaseInput,
    DualPathMismatch,
    _normalizing_shift,
    thm2_chain,
    thm2_closed,
)


def old_normalizing_shift(a):
    return min(v for v in a if a.count(v) >= 2)


def old_normalized_pq(twists):
    twists = tuple(twists)
    if len(twists) != 4:
        raise ValueError(f"need exactly 4 twists, got {len(twists)}")
    rest = list(twists)
    try:
        rest.remove(0)
        rest.remove(0)
    except ValueError:
        raise HypothesisViolation(
            f"two of the twists must be zero after normalization, got {twists}"
        ) from None
    return tuple(rest)


def old_thm2_chain(inp):
    t = old_normalizing_shift(inp.a)
    p, q = old_normalized_pq(tuple(ai - t for ai in inp.a))
    poly = theorems.thm2_chain_poly(p, q, inp.k)
    if poly.degree not in (None, 0):
        raise DualPathMismatch(
            f"chain value unexpectedly depends on the twist: {poly.render('a')}"
        )
    return poly(0) + 8 * t


def _with_repeat(a):
    return len(set(a)) < 4


def test_shift_matches_min_count_on_the_whole_small_grid():
    grid = [a for a in product(range(-3, 4), repeat=4) if _with_repeat(a)]
    assert len(grid) == 7 ** 4 - 7 * 6 * 5 * 4
    for a in grid:
        assert _normalizing_shift(a) == old_normalizing_shift(a), a


_twists = st.lists(st.integers(-60, 60), min_size=3, max_size=3).flatmap(
    lambda three: st.permutations(three + [three[0]]))


@given(_twists, st.integers(-20, 20))
def test_chain_matches_the_earlier_route(a, k):
    inp = DivisorCaseInput(tuple(a), k)
    got = thm2_chain(inp)
    assert type(got) is Fraction
    assert got == old_thm2_chain(inp) == thm2_closed(inp)


_INP = DivisorCaseInput((2, 2, 5, 7), 1)


def test_twist_dependent_chain_raises(monkeypatch):
    monkeypatch.setattr(theorems, "thm2_chain_poly", lambda p, q, k: 3 + T)
    with pytest.raises(DualPathMismatch) as err:
        thm2_chain(_INP)
    assert str(err.value) == "chain value unexpectedly depends on the twist: a + 3"


@pytest.mark.parametrize("poly", [UniPoly(), UniPoly((Fraction(5, 3),))])
def test_constant_chain_adds_the_shift(monkeypatch, poly):
    monkeypatch.setattr(theorems, "thm2_chain_poly", lambda p, q, k: poly)
    got = thm2_chain(_INP)
    assert type(got) is Fraction
    assert got == poly(0) + 8 * 2


class TestNormalizedPqOnAList:
    def test_value_is_a_two_tuple(self):
        assert normalized_pq([0, 3, 0, -1]) == (3, -1) == old_normalized_pq([0, 3, 0, -1])
        assert normalized_pq([0, 0, 0, 0]) == (0, 0)

    @pytest.mark.parametrize("twists", [[0, 0, 1], [0, 0, 1, 2, 3], []])
    def test_wrong_length(self, twists):
        with pytest.raises(ValueError) as err:
            normalized_pq(twists)
        assert type(err.value) is ValueError
        assert str(err.value) == f"need exactly 4 twists, got {len(twists)}"

    @pytest.mark.parametrize("twists", [[0, 1, 2, 3], [1, 1, 2, 2], [0, 1, 1, 1]])
    def test_fewer_than_two_zeros(self, twists):
        with pytest.raises(HypothesisViolation) as err:
            normalized_pq(twists)
        assert str(err.value) == (
            "two of the twists must be zero after normalization, "
            f"got {tuple(twists)}")

    @given(st.lists(st.integers(-3, 3), max_size=6))
    def test_same_outcome_as_the_tuple_route(self, twists):
        def outcome(f):
            try:
                return f(list(twists))
            except ValueError as exc:
                return type(exc), str(exc)
        assert outcome(normalized_pq) == outcome(old_normalized_pq)


def test_a_cache_hit_makes_one_fraction(monkeypatch):
    """Counted as the benchmark's ``exact.fraction_new`` counts."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from worker import fraction_constructions

    inp = DivisorCaseInput((-4, 1, 1, 9), 3)
    thm2_chain(inp)  # fills the cache for this (p, q, k)
    profiler = cProfile.Profile()
    profiler.enable()
    got = thm2_chain(inp)
    profiler.disable()
    assert got == thm2_closed(inp)
    assert fraction_constructions(profiler) == 1
