"""What one plane-bundle check builds, counted.

``chern.plane_bundle_tangent_classes`` builds 3H once, so the tangent
classes of one bundle cost nine ring elements beside H and U.  A warm
check of one bundle in the style of the benchmark's ``plane-grid``
workload (thm3's routes, ten HRR cross-checks, the symmetric-power
polynomials against the splitting oracle, and the tangent classes in
the Chow ring) makes no Fraction: every value it reads is whole, and
the engines return a whole value as an int.  The counts are the ones
this code reaches; a change that builds more fails here.

Dividing a ring element by an int scales it by the reciprocal's
numerator and denominator, so it builds one element and no Fraction.
"""

import cProfile
from pathlib import Path

import pytest

from bottcheck import chern, chow, exact, theorems

# Every ring element of exact._Sparse's subclasses is set either by
# _store (through _new or a constructor) or by _canonical.
_SPARSE_BUILDERS = {exact._Sparse._store.__code__, exact._Sparse._canonical.__func__.__code__}


@pytest.fixture
def count(monkeypatch):
    """Run a call under the profiler; return its value, the ring elements
    it built and the Fractions it made, counted as the benchmark's
    ``exact.fraction_new`` counts them."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from worker import fraction_constructions

    def run(call):
        profiler = cProfile.Profile()
        profiler.enable()
        got = call()
        profiler.disable()
        built = sum(entry.callcount for entry in profiler.getstats()
                    if entry.code in _SPARSE_BUILDERS)
        return got, built, fraction_constructions(profiler)

    return run


def bundle_check(c1, c2):
    """One bundle's checks, as a ``plane-grid`` check runs them."""
    bundle = theorems.PlaneBundleInput(c1, c2)
    q = theorems.thm3_Q(bundle).Q
    hrr = [(theorems.thm3_hrr_crosscheck(bundle, b), q(b)) for b in range(-3, 7)]
    polys = chern.sym_power_polys(chern.SurfaceChern(2, c1, c2))
    sym = []
    for b in range(7):
        oracle = chern.sym_power_splitting_oracle(c1, c2, b)
        sym.append(((oracle.c1, oracle.c2), (polys.C1(b), polys.C2(b))))
    tc1, tc2, tc3 = chern.tangent_chern_plane_bundle(chow.PlaneBase2(c1, c2))
    degrees = (tc3.degree(), (tc1 * tc2).degree())
    return q(-1), theorems.thm3_value(bundle), hrr, sym, degrees


@pytest.mark.parametrize("c1, c2", [(3, 3), (-7, 11), (40, -40), (0, 0)])
def test_the_tangent_classes_build_nine_elements_beside_h_and_u(count, c1, c2):
    ambient = chow.PlaneBase2(c1, c2)
    (tc1, tc2, tc3), built, _ = count(lambda: chern.tangent_chern_plane_bundle(ambient))
    assert built == 11  # H, U, then 2U, c1 H, rel, 3H, c1(T), rel + H, c2(T), 3H^2, c3(T)
    H, U = chow.H_class(ambient), chow.U_class(ambient)
    _, built, _ = count(lambda: chern.plane_bundle_tangent_classes(H, U, c1))
    assert built == 9
    assert (tc3.degree(), (tc1 * tc2).degree()) == (6, 24)


@pytest.mark.parametrize("c1, c2", [(3, 3), (-7, 11), (40, -40), (0, 0)])
def test_a_warm_plane_bundle_check_makes_no_fraction(count, c1, c2):
    bundle_check(41, 7)  # compiles every form's int code
    (q_minus_1, value, hrr, sym, degrees), _, made = count(lambda: bundle_check(c1, c2))
    assert made == 0
    assert q_minus_1 == value == theorems.thm3_value(theorems.PlaneBundleInput(c1, c2))
    assert all(x == y for x, y in hrr) and all(x == y for x, y in sym)
    assert degrees == (6, 24)


@pytest.mark.parametrize("make", [lambda: exact.Poly.sym("x"),
                                  lambda: chow.U_class(chow.PlaneBase2(3, 3)) / 2],
                         ids=["Poly", "GradedClass"])
def test_a_quotient_by_an_int_makes_no_fraction(count, make):
    x = make()
    for n in (3, -3):
        got, built, made = count(lambda: x / n)
        assert (built, made) == (1, 0)
        assert got * n == x and type(got) is type(x)
