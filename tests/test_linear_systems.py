import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibrelab.linear_systems import (
    Bidegree,
    HirzebruchClass,
    SeveriSpec,
    arithmetic_genus_p1xp1,
    delpezzo_anticanonical_dim,
    h0_p1xp1,
    hirzebruch_effective,
    hirzebruch_genus,
    hirzebruch_intersection,
    hyperelliptic_bidegree,
    prescribed_nodes_dimension,
    severi_dimension,
)


class TestSections:
    def test_hyperelliptic_system_fixture(self):
        assert h0_p1xp1(Bidegree(2, 3)) == 12 == 3 * (2 + 2)

    def test_constants(self):
        assert h0_p1xp1(Bidegree(0, 0)) == 1

    def test_quadric_embedding_class(self):
        assert h0_p1xp1(Bidegree(1, 1)) == 4

    def test_negative_bidegree_rejected(self):
        with pytest.raises(ValueError):
            Bidegree(-1, 2)


class TestGenus:
    @pytest.mark.parametrize("g", [2, 3, 4, 5])
    def test_hyperelliptic_family_has_genus_g(self, g):
        assert arithmetic_genus_p1xp1(Bidegree(2, g + 1)) == g

    def test_conics_on_the_quadric_are_rational(self):
        assert arithmetic_genus_p1xp1(Bidegree(1, 1)) == 0

    def test_three_three(self):
        assert arithmetic_genus_p1xp1(Bidegree(3, 3)) == 4

    def test_degenerate_bidegree_rejected(self):
        with pytest.raises(ValueError, match="requires a,b >= 1"):
            arithmetic_genus_p1xp1(Bidegree(0, 5))


class TestSeveri:
    def test_zero_nodes_is_full_system(self):
        assert severi_dimension(SeveriSpec(Bidegree(2, 3), 0)) == 11

    def test_two_nodes(self):
        assert severi_dimension(SeveriSpec(Bidegree(2, 3), 2)) == 9 == 3 * 2 + 5 - 2

    def test_empty_beyond_arithmetic_genus(self):
        assert severi_dimension(SeveriSpec(Bidegree(2, 3), 3)) is None

    @pytest.mark.parametrize("a", range(1, 9))
    @pytest.mark.parametrize("b", range(1, 9))
    def test_nodeless_family_is_projectivised_h0(self, a, b):
        assert severi_dimension(SeveriSpec(Bidegree(a, b), 0)) == h0_p1xp1(Bidegree(a, b)) - 1


class TestPrescribedNodes:
    def test_fixtures(self):
        assert prescribed_nodes_dimension(2, 0) == 11
        assert prescribed_nodes_dimension(3, 2) == 8

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            prescribed_nodes_dimension(2, 3)

    def test_moving_nodes_recovers_severi_dimension(self):
        for g in range(2, 7):
            for c in range(g + 1):
                fixed = prescribed_nodes_dimension(g, c)
                moving = severi_dimension(SeveriSpec(Bidegree(2, g + 1), c))
                assert fixed + 2 * c == moving


class TestHirzebruch:
    def test_negative_section_square(self):
        h = HirzebruchClass(3, 1, 0)
        assert hirzebruch_intersection(h, h) == -3

    def test_section_off_the_vertex_misses_h(self):
        e = 3  # F_{g+1} with g = 2
        assert hirzebruch_intersection(HirzebruchClass(e, 1, 3), HirzebruchClass(e, 1, 0)) == 0

    def test_fibre_square_zero(self):
        f = HirzebruchClass(5, 0, 1)
        assert hirzebruch_intersection(f, f) == 0

    def test_mismatched_surface_rejected(self):
        with pytest.raises(ValueError, match="mismatched"):
            hirzebruch_intersection(HirzebruchClass(1, 1, 0), HirzebruchClass(2, 1, 0))

    @given(st.integers(0, 6), *(st.integers(-9, 9) for _ in range(4)),
           st.integers(-3, 3), st.integers(-3, 3))
    @settings(max_examples=120, deadline=None)
    def test_symmetric_and_bilinear(self, e, a1, b1, a2, b2, m, n):
        c1, c2 = HirzebruchClass(e, a1, b1), HirzebruchClass(e, a2, b2)
        assert hirzebruch_intersection(c1, c2) == hirzebruch_intersection(c2, c1)
        combo = HirzebruchClass(e, m * a1 + n * a2, m * b1 + n * b2)
        probe = HirzebruchClass(e, 7, -5)
        assert hirzebruch_intersection(combo, probe) == \
            m * hirzebruch_intersection(c1, probe) + n * hirzebruch_intersection(c2, probe)

    def test_hyperelliptic_class_genus(self):
        assert hirzebruch_genus(HirzebruchClass(3, 2, 6)) == 2

    def test_component_class_is_rational(self):
        for g in (2, 3, 4):
            assert hirzebruch_genus(HirzebruchClass(g + 1, 1, g + 1)) == 0

    def test_f0_specialisation_matches_quadric_genus(self):
        for a in range(1, 7):
            for b in range(1, 7):
                assert hirzebruch_genus(HirzebruchClass(0, a, b)) == \
                    arithmetic_genus_p1xp1(Bidegree(a, b))

    @pytest.mark.parametrize("e", range(5))
    def test_adjunction_genus_on_a_grid(self, e):
        for a, b in itertools.product(range(-3, 7), repeat=2):
            assert hirzebruch_genus(HirzebruchClass(e, a, b)) == \
                1 + a * b - a - b - e * a * (a - 1) // 2

    def test_effectivity_helper(self):
        assert hirzebruch_effective(HirzebruchClass(3, 2, 6))
        assert not hirzebruch_effective(HirzebruchClass(3, 2, 5))
        assert not hirzebruch_effective(HirzebruchClass(3, 0, 1))


class TestDelPezzo:
    def test_anticanonical_pencil(self):
        assert delpezzo_anticanonical_dim(1) == 1

    def test_bianticanonical_space(self):
        assert delpezzo_anticanonical_dim(2) == 3

    def test_triangular_growth(self):
        assert delpezzo_anticanonical_dim(3) == 6

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            delpezzo_anticanonical_dim(0)


def scanned_bidegrees(g):
    """Every 2 <= a <= b with a + b = g + 3 and adjunction genus g, by exhaustive scan."""
    return [Bidegree(a, g + 3 - a) for a in range(2, (g + 3) // 2 + 1)
            if arithmetic_genus_p1xp1(Bidegree(a, g + 3 - a)) == g]


class TestHyperellipticBidegree:
    def test_genus_two(self):
        assert hyperelliptic_bidegree(2) == Bidegree(2, 3)

    def test_genus_five(self):
        assert hyperelliptic_bidegree(5) == Bidegree(2, 6)

    @pytest.mark.parametrize("g", range(2, 61))
    def test_unique_solution_with_consistent_degree_and_genus(self, g):
        d = hyperelliptic_bidegree(g)
        assert scanned_bidegrees(g) == [d] == [Bidegree(2, g + 1)]
        assert d.a + d.b == g + 3
        assert arithmetic_genus_p1xp1(d) == g


def test_three_routes_to_the_same_family_agree():
    """The nodal models, the F_{g+1} class 2h + (2g+2)f, and the bidegree
    (2, g+1) all claim arithmetic genus g."""
    from fibrelab.curves import classify, construct_nodal

    for g in range(2, 11):
        t = min(2, g)
        fc = classify(construct_nodal(g, t, 31))
        assert fc.geometric_genus + fc.t == g
        assert hirzebruch_genus(HirzebruchClass(g + 1, 2, 2 * g + 2)) == g
        assert arithmetic_genus_p1xp1(Bidegree(2, g + 1)) == g
