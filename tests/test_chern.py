from fractions import Fraction
from itertools import combinations

import pytest

from bottcheck.chern import (
    SurfaceChern,
    cotangent_twist_e_classes,
    sym_power_polys,
    sym_power_splitting_oracle,
    symbolic_degree,
    tangent_chern_plane_bundle,
    tensor_c1,
    tensor_c2,
)
from bottcheck.chow import PlaneBase2
from bottcheck.exact import Poly

C1, H, C2, C3 = (Poly.sym(s) for s in ("c1", "H", "c2", "c3"))


def _split_chern(roots):
    """Rank, c1, c2 of a direct sum of line bundles with the given roots."""
    c1 = Fraction(sum(roots))
    c2 = Fraction(sum(a * b for a, b in combinations(roots, 2)))
    return SurfaceChern(len(roots), c1, c2)


def tensor_chern_surface(f1, f2):
    """The Chern numbers of f1 tensor f2, from ``tensor_c1`` and ``tensor_c2``."""
    return SurfaceChern(
        f1.rank * f2.rank,
        tensor_c1(f1.rank, f2.rank, f1.c1, f2.c1),
        tensor_c2(f1.rank, f2.rank, f1.c1, f1.c2, f2.c1, f2.c2),
    )


class TestSurfaceChern:
    def test_it_keeps_its_record_contract(self):
        # Its own __init__ fills __dict__ in one update, an int or a
        # Fraction kept as given; the rest is exact.immutable's.
        assert SurfaceChern._fields == ("rank", "c1", "c2")
        e = SurfaceChern(2, 3, Fraction(5, 2))
        assert (type(e.c1), type(e.c2)) == (int, Fraction)
        assert e == SurfaceChern(rank=2, c1=Fraction(3), c2=Fraction(5, 2))
        assert hash(e) == hash(SurfaceChern(2, 3, Fraction(5, 2)))
        assert e != SurfaceChern(3, 3, Fraction(5, 2))
        assert repr(e) == "SurfaceChern(rank=2, c1=3, c2=Fraction(5, 2))"
        with pytest.raises(AttributeError):
            e.c1 = Fraction(1)
        with pytest.raises(ValueError, match="^rank must be >= 1, got 0$"):
            SurfaceChern(0, 1, 1)


class TestTensor:
    def test_trivial_factor_is_identity(self):
        f = SurfaceChern(2, 1, 4)
        triv = SurfaceChern(1, 0, 0)
        assert tensor_chern_surface(f, triv) == f
        assert tensor_chern_surface(triv, f) == f

    def test_cotangent_twist(self):
        cot = SurfaceChern(2, -3, 3)
        twist = SurfaceChern(1, -1, 0)
        assert tensor_chern_surface(cot, twist) == SurfaceChern(2, -5, 7)

    def test_rank2_square(self):
        f = SurfaceChern(2, 1, 1)
        out = tensor_chern_surface(f, f)
        assert (out.rank, out.c1, out.c2) == (4, 4, 9)

    @pytest.mark.parametrize(
        "r1,r2", [((0,), (1, 2)), ((1, 1), (0, 2)), ((0, 1, 2), (3,)), ((1,), (1,))]
    )
    def test_matches_root_products_for_split_bundles(self, r1, r2):
        product_roots = [a + b for a in r1 for b in r2]
        assert tensor_chern_surface(
            _split_chern(r1), _split_chern(r2)
        ) == _split_chern(product_roots)

    @pytest.mark.parametrize("roots", [(0,), (1, 2), (0, 1, 2), (-1, 0, 1, 3)])
    @pytest.mark.parametrize("d", [-2, 1, 3])
    def test_line_bundle_factor_shifts_every_root(self, roots, d):
        shifted = [a + d for a in roots]
        assert tensor_chern_surface(
            _split_chern(roots), SurfaceChern(1, d, 0)
        ) == _split_chern(shifted)


GRID = [(c1, c2) for c1 in range(-3, 4) for c2 in range(-3, 4)]


class TestSymPowerPolys:
    @pytest.mark.parametrize("c1,c2", GRID)
    def test_special_values(self, c1, c2):
        sp = sym_power_polys(SurfaceChern(2, c1, c2))
        assert sp.C1(-1) == 0 and sp.C2(-1) == 0
        assert sp.C1(-2) == c1 and sp.C2(-2) == c1 * c1
        assert sp.A1(-2) == c1 + 1 and sp.A2(-2) == (c1 + 1) ** 2
        assert sp.A1(-1) == 0 and sp.A2(-1) == 0

    def test_degree_two_power(self):
        sp = sym_power_polys(SurfaceChern(2, 1, 1))
        assert sp.C1(2) == 3
        assert sp.C2(2) == 6  # 2*c1^2 + 4*c2

    def test_rank_restriction(self):
        with pytest.raises(ValueError):
            sym_power_polys(SurfaceChern(3, 1, 1))


class TestSplittingOracle:
    def test_zeroth_power_trivial(self):
        assert sym_power_splitting_oracle(5, 2, 0) == SurfaceChern(1, 0, 0)

    def test_first_power_identity(self):
        assert sym_power_splitting_oracle(5, 2, 1) == SurfaceChern(2, 5, 2)

    def test_cube(self):
        sp = sym_power_polys(SurfaceChern(2, 1, 0))
        oracle = sym_power_splitting_oracle(1, 0, 3)
        assert (oracle.c1, oracle.c2) == (sp.C1(3), sp.C2(3))

    @pytest.mark.parametrize("c1,c2", GRID)
    def test_matches_closed_form(self, c1, c2):
        sp = sym_power_polys(SurfaceChern(2, c1, c2))
        for b in range(7):
            oracle = sym_power_splitting_oracle(c1, c2, b)
            assert oracle.rank == b + 1
            assert oracle.c1 == sp.C1(b)
            assert oracle.c2 == sp.C2(b)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            sym_power_splitting_oracle(1, 1, -1)


class TestTwistedCotangentClasses:
    def test_first_class(self):
        e1, _, _ = cotangent_twist_e_classes()
        assert e1 == -4 * C1 - 3 * H

    def test_second_class(self):
        _, e2, _ = cotangent_twist_e_classes()
        h, c1, c2 = H, C1, C2
        assert e2 == c2 + 5 * c1 * c1 + 8 * c1 * h + 3 * h * h

    def test_third_class_before_substitution(self):
        _, _, e3 = cotangent_twist_e_classes()
        h, c1, c2, c3 = H, C1, C2, C3
        expected = (
            -c3
            - c2 * h
            - c1 * c2
            - 2 * c1 * c1 * c1
            - 5 * c1 * c1 * h
            - 4 * c1 * h * h
            - h * h * h
        )
        assert e3 == expected

    def test_degree_substitutions(self):
        assert symbolic_degree(C1 * C2) == 24
        assert symbolic_degree(C3) == 6 - 2 * Poly.sym("h")
        assert symbolic_degree(C1) == 0

    def test_every_weight_three_monomial_has_its_symbol(self):
        s = Poly.sym
        degrees = {
            C1 ** 3: s("c13"), C1 * C1 * H: s("c12H"), C1 * H * H: s("c1H2"),
            H ** 3: s("H3"), C2 * H: s("c2H"), C1 * C2: Poly({(): 24}),
            C3: 6 - 2 * s("h"),
        }
        for x, want in degrees.items():
            assert symbolic_degree(x) == want
            assert symbolic_degree(-3 * x / 2) == -3 * want / 2
        assert symbolic_degree(sum(degrees)) == sum(degrees.values())

    def test_other_weights_have_degree_zero(self):
        for x in (Poly(), 1 + H, C1 * C1, C2 * C2, C1 ** 4, C3 * H, C2 * C1 * H):
            assert symbolic_degree(x) == 0

    def test_classes_are_homogeneous_of_weights_one_two_three(self):
        weights = {"c1": 1, "H": 1, "c2": 2, "c3": 3}
        for i, e in enumerate(cotangent_twist_e_classes(), 1):
            assert e.terms and all(
                sum(weights[v] * k for v, k in m) == i for m, _ in e.terms
            )


class TestTangentOfPlaneBundle:
    @pytest.mark.parametrize("c1,c2", GRID)
    def test_euler_characteristic_and_c1c2(self, c1, c2):
        amb = PlaneBase2(c1, c2)
        tc1, tc2, tc3 = tangent_chern_plane_bundle(amb)
        assert tc3.degree() == 6
        assert (tc1 * tc2).degree() == 24

    def test_first_class_shape(self):
        amb = PlaneBase2(2, 1)
        tc1, _, _ = tangent_chern_plane_bundle(amb)
        # (3 - c1) H + 2 U
        assert tc1.coeff(1, 0) == 1 and tc1.coeff(0, 1) == 2
