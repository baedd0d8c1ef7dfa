"""thm2's chain on a cache hit: the normal form (t, p, q) from
``check_twists``'s one sort, and no Fraction for a whole result.  The
oracles are the earlier route, copied here as it was: the shift by
``min``/``count``, the (p, q) left after removing two zeros from the
shifted tuple, and ``poly(0) + 8*t``."""

import cProfile
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from bottcheck import theorems
from bottcheck.exact import UniPoly
from bottcheck.rr import HypothesisViolation
from bottcheck.theorems import (
    DivisorCaseInput,
    DualPathMismatch,
    check_twists,
    thm2_chain,
    thm2_closed,
)
from test_int_values import int_when_whole


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
        t = old_normalizing_shift(a)
        pq = sorted(old_normalized_pq(tuple(ai - t for ai in a)))
        assert check_twists(a) == (t, *pq), a


def test_permutations_of_the_twists_share_one_chain():
    # p <= q in the normal form, so the order of the twists picks no
    # other cache entry.
    theorems.thm2_chain_poly.cache_clear()
    twists = (-2, 5, -2, 9)
    values = {thm2_chain(DivisorCaseInput(a, 4)) for a in permutations(twists)}
    assert values == {thm2_closed(DivisorCaseInput(twists, 4))}
    assert theorems.thm2_chain_poly.cache_info().currsize == 1


_twists = st.lists(st.integers(-60, 60), min_size=3, max_size=3).flatmap(
    lambda three: st.permutations(three + [three[0]]))


class TestCheckTwists:
    """``check_twists`` on its own, where ``normalized_pq`` was tested: the
    value it returns, and both refusals with their exact type and text."""

    @pytest.mark.parametrize("a, form", [
        ((0, 3, 0, -1), (0, -1, 3)),
        ((0, 0, 0, 0), (0, 0, 0)),
        ((1, 1, 2, 2), (1, 1, 1)),  # t is the smaller of two repeats
        ((0, 1, 1, 1), (1, -1, 0)),
    ])
    def test_value_is_the_normal_form(self, a, form):
        got = check_twists(a)
        assert got == form
        assert got[1:] == tuple(sorted(old_normalized_pq(ai - got[0] for ai in a)))

    @pytest.mark.parametrize("twists", [(0, 0, 1), (0, 0, 1, 2, 3), ()])
    def test_wrong_length(self, twists):
        with pytest.raises(ValueError) as err:
            check_twists(twists)
        assert type(err.value) is ValueError
        assert str(err.value) == f"need exactly 4 twists, got {len(twists)}"

    @pytest.mark.parametrize("twists", [(0, 1, 2, 3), (3, 2, 1, 0), (-7, 40, 0, 5)])
    def test_all_distinct(self, twists):
        with pytest.raises(HypothesisViolation) as err:
            check_twists(twists)
        assert str(err.value) == (
            f"the four twists must not be all distinct, got {twists}")

    @given(_twists)
    def test_form_rebuilds_the_twists(self, a):
        t, p, q = check_twists(tuple(a))
        assert p <= q
        assert sorted(a) == sorted((t, t, t + p, t + q))
        assert t == old_normalizing_shift(a)


@given(_twists, st.integers(-20, 20))
def test_chain_matches_the_earlier_route(a, k):
    inp = DivisorCaseInput(tuple(a), k)
    got = thm2_chain(inp)
    assert int_when_whole(got)
    assert got == old_thm2_chain(inp) == thm2_closed(inp)


_INP = DivisorCaseInput((2, 2, 5, 7), 1)


def test_twist_dependent_chain_raises(monkeypatch):
    monkeypatch.setattr(theorems, "thm2_chain_poly", lambda p, q, k: UniPoly((3, 1)))
    with pytest.raises(DualPathMismatch) as err:
        thm2_chain(_INP)
    assert str(err.value) == "chain value unexpectedly depends on the twist: a + 3"


@pytest.mark.parametrize("poly", [UniPoly(), UniPoly((Fraction(5, 3),))])
def test_constant_chain_adds_the_shift(monkeypatch, poly):
    monkeypatch.setattr(theorems, "thm2_chain_poly", lambda p, q, k: poly)
    got = thm2_chain(_INP)
    assert int_when_whole(got)
    assert got == poly(0) + 8 * 2


def test_a_cache_hit_makes_no_fraction(monkeypatch):
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
    assert fraction_constructions(profiler) == 0
