import json
import subprocess
import sys
from fractions import Fraction

import pytest

from fibrelab.curves import (
    FibreKind,
    HyperellipticModel,
    classify,
    classify_signature,
    construct_nodal,
    construct_split,
)
from fibrelab.factorization import galois_orbits, irreducible_factors
from fibrelab.geography import SurfaceInvariants, noether_complete
from fibrelab.pencils import (
    EVERYWHERE_SINGULAR,
    NON_CONSTANT,
    Pencil,
    SingularFibreRecord,
    euler_summary,
    orbit_signature,
    pencil_discriminant,
    seeded_pencil,
    total_space_euler,
)
from fibrelab.polynomial import (
    UniPoly,
    discriminant,
    repeated_part,
    resultant,
    unipoly_from_literal,
)

from conftest import (
    compose,
    fraction_gcd,
    fraction_squarefree_decomposition,
    number_field_signature,
    yun_signature,
)

# the pencil between x^6 - 1 and x^6 - x: small, with one rational singular
# parameter (a base point of the family sits at (1, 0)) and one quartic orbit
DEMO = Pencil(2, unipoly_from_literal(["-1", 0, 0, 0, 0, 0, 1]),
              unipoly_from_literal([0, "-1", 0, 0, 0, 0, 1]))


def planted_pencil(g, t, lam_star, seed=5, smooth_seed=6) -> Pencil:
    """Pencil whose member at the rational parameter lam_star is the seeded
    t-nodal model, the split one for t = g + 1 (monic endpoints, so no degree
    drop anywhere)."""
    nodal = (construct_split(g, seed) if t == g + 1 else construct_nodal(g, t, seed)).f
    smooth = construct_nodal(g, 0, smooth_seed).f
    lam_star = Fraction(lam_star)
    # (1 - lam*) f0 + lam* f1 = nodal with f1 = smooth
    f0 = (nodal - lam_star * smooth) / (1 - lam_star)
    return Pencil(g, f0, smooth)


def pulled_back_member(pencil: Pencil) -> UniPoly:
    """f_lam along lam = mu^2, coefficients in Q[mu]."""
    mu_squared = UniPoly((0, 0, 1))
    return UniPoly(tuple(compose(c, mu_squared) for c in pencil.member().coefficients))


def chart_image(f: UniPoly, n: int, c) -> UniPoly:
    """``x^n f(c + 1/x)``: the binary form ``f`` of degree ``n`` moved by ``x -> c + 1/x``."""
    line = UniPoly((1, c))  # 1 + c x
    image = UniPoly.zero()
    for k, a in enumerate(f.coefficients):
        image = image + line ** k * UniPoly((0,) * (n - k) + (a,))
    return image


SQRT2 = UniPoly((Fraction(-2), Fraction(0), Fraction(1)))  # mu^2 - 2


class TestPencilValidation:
    def test_genus_below_2_rejected(self):
        with pytest.raises(ValueError, match="pencil genus must be >= 2"):
            Pencil(1, UniPoly.from_roots([0, 1, 2, 3]), UniPoly.from_roots([4, 5, 6, 7]))

    def test_proportional_members_rejected(self):
        f = construct_nodal(2, 0, 1).f
        with pytest.raises(ValueError, match="non-constant"):
            Pencil(2, f, f * Fraction(3))

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError, match="degree drop"):
            Pencil(2, UniPoly.from_roots([0, 1, 2, 3, 4]), construct_nodal(2, 0, 1).f)

    def test_member_of_too_high_degree_reported_as_such(self):
        # the same message classify gives for the same polynomial
        with pytest.raises(ValueError, match=r"model degree 7 exceeds 2g\+2 = 6"):
            Pencil(2, UniPoly.from_roots(range(7)), construct_nodal(2, 0, 1).f)
        with pytest.raises(ValueError, match=r"model degree 7 exceeds 2g\+2 = 6"):
            Pencil(2, construct_nodal(2, 0, 1).f, UniPoly.from_roots(range(7)))

    @pytest.mark.parametrize("g", [2, 3, 4, 5])
    def test_printed_form_reads_back(self, g):
        for seed in range(4):
            pencil = seeded_pencil(g, seed)
            assert Pencil.from_dict(json.loads(json.dumps(pencil.to_dict()))) == pencil

    def test_non_constant_message_is_stable(self):
        assert NON_CONSTANT == "pencil is non-constant precondition violated"


class TestPencilDiscriminant:
    def test_generic_degree_is_10(self):
        assert pencil_discriminant(seeded_pencil(2, 0)).degree == 10

    def test_agrees_with_scalar_discriminant(self):
        disc = pencil_discriminant(DEMO)
        for lam in (0, 1, 3, Fraction(1, 2), Fraction(-7, 3)):
            assert disc(Fraction(lam)) == discriminant(DEMO.fibre_at(lam))

    @pytest.mark.parametrize("g", [5, 6, 7, 8])
    def test_seeded_ladder_has_full_degree_and_scalar_values(self, g):
        # rational roots, so every Sylvester row is scaled by its own lcm
        pencil = seeded_pencil(g, 0)
        disc = pencil_discriminant(pencil)
        assert disc.degree == 4 * g + 2
        for lam in (Fraction(1, 3), Fraction(-2, 5)):
            assert disc(lam) == discriminant(pencil.fibre_at(lam))

    def test_leading_coefficient_zero_at_an_interpolation_node(self):
        # lc(f_lam) = 1 - lam/2 vanishes at the node 2, so the node window
        # of the subresultant moves past it
        f0 = seeded_pencil(2, 0).f0
        f1 = UniPoly.from_roots([1, 2, 3, 5, 7, 11], leading=Fraction(1, 2))
        pencil = Pencil(2, f0, f1)
        assert pencil.fibre_at(2).degree == 5
        disc = pencil_discriminant(pencil)
        assert discriminant(pencil.member()) == disc
        for lam in (Fraction(1, 3), Fraction(-2, 5), Fraction(1), Fraction(3)):
            assert disc(lam) == discriminant(pencil.fibre_at(lam))
        summary = total_space_euler(pencil)
        assert (summary.e_total, summary.disc_degree, summary.euler_exact) == (5, 10, True)
        assert summary.to_dict()["fibres"] == [
            {"param": "187/185", "conjugates": 1, "nodes": 1, "class": "IrreducibleNodal"},
            {"minpoly": [
                "-15873128063107060361527296/92336752143174681934395015607",
                "-854005701150107973753380864/92336752143174681934395015607",
                "318316826381268587341076557292/1015704273574921501278345171677",
                "-2441463480652343365118898391842/1015704273574921501278345171677",
                "7792287030457191957210368747165/1015704273574921501278345171677",
                "-12782376633418149008154889487104/1015704273574921501278345171677",
                "879650220657151565116866878778/78131097967301653944488090129",
                "-2866246486198476225240725138/546371314456654922688727903",
                "1"], "conjugates": 8, "nodes": 1, "class": "IrreducibleNodal"},
        ]

    @pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
    def test_is_the_discriminant_of_the_member(self, g):
        for pencil in (seeded_pencil(g, 0), seeded_pencil(g, 1)):
            disc = discriminant(pencil.member())
            assert isinstance(disc, UniPoly) and disc == pencil_discriminant(pencil)

    @pytest.mark.parametrize("g", [2, 3, 4, 6])
    def test_is_a_constant_times_the_wronskian_resultant(self, g):
        # f_lam = f0 + lam h shares a root with f_lam' exactly where x is a root
        # of W = f0' h - f0 h', so Res_x(W, f_lam) = c Disc_x(f_lam), c != 0
        pencil = seeded_pencil(g, 2)
        h = pencil.f1 - pencil.f0
        wronskian = pencil.f0.derivative() * h - pencil.f0 * h.derivative()
        res, disc = resultant(wronskian, pencil.member()), pencil_discriminant(pencil)
        c = res.leading_coefficient / disc.leading_coefficient
        assert c and res == disc * c

    def test_shared_square_factor_is_everywhere_singular(self):
        sq = UniPoly.from_roots([1]) ** 2
        f0 = sq * UniPoly.from_roots([2, 3, 4, 5])
        f1 = sq * UniPoly.from_roots([6, 7, 8, 9])
        with pytest.raises(ValueError, match=EVERYWHERE_SINGULAR):
            pencil_discriminant(Pencil(2, f0, f1))

    def test_member_dropping_degree_at_a_rational_parameter_has_a_node_at_infinity(self):
        # lc(f_lam) = 1 + lam vanishes at lam = -1, a root of the discriminant: the
        # member there is (x+1)(x+2)(x+3)(x+5), a sextic form with a double root at x = oo
        pencil = Pencil(2, unipoly_from_literal(["0", "-144", "324", "-260", "95", "-16", "1"]),
                        unipoly_from_literal(["-30", "-349", "607", "-531", "189", "-32", "2"]))
        assert pencil.fibre_at(-1) == UniPoly.from_roots([-1, -2, -3, -5])
        at_minus_one, orbit = total_space_euler(pencil).singular_fibres
        assert at_minus_one == SingularFibreRecord(Fraction(-1), 1, 1, FibreKind.IRREDUCIBLE_NODAL)
        assert (orbit.conjugate_count, orbit.nodes_per_fibre, orbit.fibre_class) == (
            9, 1, FibreKind.IRREDUCIBLE_NODAL)

    def test_planted_root_at_zero(self):
        pencil = planted_pencil(2, 1, 0)
        disc = pencil_discriminant(pencil)
        assert disc(Fraction(0)) == 0
        # all other singular parameters are simple roots of the discriminant
        mults = {m for _, m in fraction_squarefree_decomposition(disc)}
        assert mults == {1}


class TestSingularFibres:
    def test_planted_nodal_record(self):
        records = total_space_euler(planted_pencil(2, 1, 0)).singular_fibres
        at_zero = [r for r in records if r.parameter == Fraction(0)]
        assert len(at_zero) == 1
        assert at_zero[0].nodes_per_fibre == 1
        assert at_zero[0].fibre_class == FibreKind.IRREDUCIBLE_NODAL

    def test_split_member_recorded(self):
        smooth = construct_nodal(2, 0, 12).f
        split = construct_split(2, 13).f
        records = total_space_euler(Pencil(2, smooth, split)).singular_fibres
        at_one = [r for r in records if r.parameter == Fraction(1)]
        assert len(at_one) == 1
        assert at_one[0].fibre_class == FibreKind.SPLIT_NODAL
        assert at_one[0].nodes_per_fibre == 3  # g + 1 crossings are nodes

    def test_rational_records_agree_with_classify(self):
        # a rational parameter r is the orbit of lam - r; the gcd chain over Q
        # on the member at r, the route it replaced, is the oracle
        cases = [(planted_pencil(g, t, lam_star), Fraction(lam_star))
                 for g in (2, 3, 4) for t in range(1, g + 2)
                 for lam_star in (0, 2, -1, Fraction(1, 3))]
        cases += [(TestWorseThanNodeFibres.build(f0), Fraction(0))
                  for f0 in (TestWorseThanNodeFibres.TRIPLE_ROOT,
                             TestWorseThanNodeFibres.NODE_BESIDE_CUSP)]
        cases.append((DEMO, Fraction(6)))  # the base point
        for pencil, planted in cases:
            records = total_space_euler(pencil).singular_fibres
            rationals = [r for r in records if isinstance(r.parameter, Fraction)]
            assert planted in [r.parameter for r in rationals]
            for rec in rationals:
                fibre = pencil.fibre_at(rec.parameter)
                oracle = classify(HyperellipticModel(pencil.g, fibre))
                assert (rec.fibre_class, rec.nodes_per_fibre) == (oracle.kind, oracle.t)
                lam_minus_r = UniPoly((-rec.parameter, 1))
                assert orbit_signature(pencil.member(), lam_minus_r) == yun_signature(fibre)

    def test_records_are_ordered_and_coprime(self):
        records = total_space_euler(DEMO).singular_fibres
        rationals = [r.parameter for r in records if isinstance(r.parameter, Fraction)]
        assert rationals == sorted(rationals)
        orbits = [r.parameter for r in records if not isinstance(r.parameter, Fraction)]
        for i, m1 in enumerate(orbits):
            assert m1.leading_coefficient == 1
            for m2 in orbits[i + 1:]:
                assert fraction_gcd(m1, m2).degree == 0

    def test_demo_pencil_census(self):
        records = total_space_euler(DEMO).singular_fibres
        shapes = [(r.conjugate_count, r.nodes_per_fibre, r.fibre_class.value) for r in records]
        assert shapes == [(1, 1, "IrreducibleNodal"), (4, 1, "IrreducibleNodal")]

    def test_orbit_nodes_cross_checked_by_number_field_gcd(self):
        # the quartic orbit of the demo pencil, re-counted by sympy's gcd
        # over Q(alpha), alpha a root of the orbit's minimal polynomial
        records = total_space_euler(DEMO).singular_fibres
        orbit = next(r for r in records if not isinstance(r.parameter, Fraction))
        signature = number_field_signature(DEMO.member(), orbit.parameter)
        assert signature == orbit_signature(DEMO.member(), orbit.parameter)
        assert signature[0] == orbit.nodes_per_fibre


class TestRootAtInfinity:
    """A member that loses ``mu`` degrees mod m has a root of multiplicity ``mu`` at x = oo.

    Each pencil has ``f1 = 2 f0 - q``, so its member at ``lam = -1`` is ``q``,
    of degree below 2g+2.  The chart change ``x -> c + 1/x`` moves that root
    to ``x = c`` and leaves ``lam`` alone, so the image pencil has the same
    records, and none of its singular members loses degree.
    """

    F0_ROOTS = {2: [0, 1, 2, 3, 4, 6], 3: [0, 1, 2, 3, 4, 6, 8, 9]}
    # (g, roots of q, (nodes, class) at lam = -1 or None when that member is smooth)
    CASES = [
        (2, [-1, -2, -3, -5], (1, FibreKind.IRREDUCIBLE_NODAL)),
        (2, [-1, -2, -3, -5, -7], None),
        (2, [-1, -2, -3], (0, FibreKind.NON_NODAL)),
        (2, [-1, -1, -3, -5], (2, FibreKind.IRREDUCIBLE_NODAL)),
        (2, [-1, -1, -3, -3], (3, FibreKind.SPLIT_NODAL)),
        (2, [-1, -2], (0, FibreKind.NON_NODAL)),
        (3, [-1, -2, -3, -5, -7, -11], (1, FibreKind.IRREDUCIBLE_NODAL)),
        (3, [-1, -2, -2, -5, -7], (1, FibreKind.NON_NODAL)),
    ]

    @classmethod
    def pencil(cls, g, q_roots) -> Pencil:
        f0 = UniPoly.from_roots(cls.F0_ROOTS[g])
        return Pencil(g, f0, f0 * 2 - UniPoly.from_roots(q_roots))

    def test_record_at_minus_one(self):
        for g, q_roots, expected in self.CASES:
            pencil = self.pencil(g, q_roots)
            assert pencil.fibre_at(-1) == UniPoly.from_roots(q_roots)
            records = total_space_euler(pencil).singular_fibres
            at = [(r.nodes_per_fibre, r.fibre_class) for r in records if r.parameter == -1]
            assert at == ([expected] if expected else []), q_roots

    @pytest.mark.parametrize("c", [Fraction(-10), Fraction(7), Fraction(1, 3)], ids=str)
    def test_records_match_the_chart_image(self, c):
        for g, q_roots, _ in self.CASES:
            pencil = self.pencil(g, q_roots)
            n = 2 * g + 2
            image = Pencil(g, chart_image(pencil.f0, n, c), chart_image(pencil.f1, n, c))
            lc = image.member().leading_coefficient
            for m, _mult in irreducible_factors(pencil_discriminant(image)):
                assert lc % m, (q_roots, m)  # the image's answer is the affine route's
            assert total_space_euler(image) == total_space_euler(pencil), q_roots


class TestOrbitOracle:
    """The subresultant route against gcds over the number field Q[lam]/(m)."""

    @pytest.mark.parametrize("seed", range(5))
    def test_every_orbit_of_seeded_genus_2_pencils(self, seed):
        pencil = seeded_pencil(2, seed)
        f = pencil.member()
        orbits = [m for m, _ in irreducible_factors(pencil_discriminant(pencil)) if m.degree > 1]
        assert orbits
        for m in orbits:
            assert orbit_signature(f, m) == number_field_signature(f, m)


class TestEulerFormula:
    def test_generic_pencil_census(self):
        summary = total_space_euler(seeded_pencil(2, 3))
        total = sum(r.conjugate_count * r.nodes_per_fibre for r in summary.singular_fibres)
        assert total == 10
        assert summary.e_total == -4 + total == 6
        assert summary.bound == -4
        assert summary.strict and summary.euler_exact
        assert summary.disc_degree == 10

    def test_empty_fibre_list_gives_product_value(self):
        summary = euler_summary(2, [], 0)
        assert summary.e_total == summary.bound == -4
        assert not summary.strict

    def test_split_member_contribution(self):
        smooth = construct_nodal(2, 0, 12).f
        split = construct_split(2, 13).f
        summary = total_space_euler(Pencil(2, smooth, split))
        rec = next(r for r in summary.singular_fibres if r.parameter == Fraction(1))
        # e(A_s) - e(A) = 1 - (-2) = 3 for the split fibre
        assert rec.nodes_per_fibre == 3

    def test_arbitrary_genera_bound(self):
        for g in range(2, 6):
            summary = euler_summary(g, [], 0)
            assert summary.e_fibre == 2 - 2 * g and summary.e_base == 2
            assert summary.e_total == 4 - 4 * g == summary.bound

    def test_noether_formula_examples(self):
        s6 = euler_summary(2, total_space_euler(seeded_pencil(2, 3)).singular_fibres, 10)
        assert s6.e_total == 6
        assert noether_complete(SurfaceInvariants(K2=6, e=s6.e_total)).chi == 1
        with pytest.raises(ValueError, match="non-integral"):
            noether_complete(SurfaceInvariants(K2=7, e=s6.e_total))


class TestDiscriminantMultiplicity:
    """Without a base point (``gcd(f0, f1) = 1``) the branch curve
    ``f_lam(x) = 0`` is smooth, so by Riemann-Hurwitz for its projection to
    lam the order of ``Disc_x(f_lam)`` at a singular parameter is
    ``d1 = deg gcd(f_lam, f_lam')``, orbit by orbit; a base point only raises
    it.  Neither classifier route computes that order."""

    @staticmethod
    def orbits_and_records(pencil):
        assert fraction_gcd(pencil.f0, pencil.f1).degree == 0
        orbits = galois_orbits(pencil_discriminant(pencil))
        records = total_space_euler(pencil).singular_fibres
        assert [loc for loc, _ in orbits] == [r.parameter for r in records]
        return [mult for _, mult in orbits], records

    @pytest.mark.parametrize("pencil", [
        seeded_pencil(2, 0), seeded_pencil(3, 1),
        planted_pencil(2, 2, 2), planted_pencil(3, 3, -1), planted_pencil(3, 2, Fraction(1, 2)),
        Pencil(2, construct_nodal(2, 0, 12).f, construct_split(2, 14).f),
    ], ids=["seeded-2-0", "seeded-3-1", "planted-2-2", "planted-3-3", "planted-3-2", "split"])
    def test_nodal_orbit_order_is_its_node_count(self, pencil):
        mults, records = self.orbits_and_records(pencil)
        assert all(r.fibre_class != FibreKind.NON_NODAL for r in records)
        assert mults == [r.nodes_per_fibre for r in records]

    def test_worse_than_node_order_is_d1(self):
        f0 = UniPoly.from_roots([5]) ** 2 * UniPoly.from_roots([2]) ** 3 * UniPoly.from_roots([4])
        pencil = Pencil(2, f0, construct_nodal(2, 0, 77).f)
        mults, records = self.orbits_and_records(pencil)
        assert (records[0].parameter, records[0].fibre_class) == (0, FibreKind.NON_NODAL)
        d1 = repeated_part(pencil.fibre_at(0)).degree
        assert mults[0] == d1 == 3 > records[0].nodes_per_fibre

    def test_base_point_raises_the_order(self):
        # the demo pencil's members all vanish at x = 1
        assert fraction_gcd(DEMO.f0, DEMO.f1).degree == 1
        (lam, mult), _orbit = galois_orbits(pencil_discriminant(DEMO))
        assert (lam, mult) == (6, 2)
        assert repeated_part(DEMO.fibre_at(lam)).degree == 1


def test_record_parameter_serialises_as_its_str():
    for lam, text in ((Fraction(-3, 2), "-3/2"), (Fraction(4), "4"), (Fraction(0), "0")):
        record = SingularFibreRecord(lam, 1, 1, FibreKind.IRREDUCIBLE_NODAL)
        assert record.to_dict() == {"param": text, "conjugates": 1, "nodes": 1,
                                    "class": "IrreducibleNodal"}
    orbit = SingularFibreRecord(unipoly_from_literal([-2, 0, 1]), 2, 1, FibreKind.SPLIT_NODAL)
    assert orbit.to_dict()["minpoly"] == ["-2", "0", "1"]


class TestConjugateBookkeeping:
    """Pulling a planted rational fibre back along lam = mu^2 must preserve
    the total node contribution: two rational preimages when lam* is a
    square, one conjugate-pair orbit when it is not."""

    @pytest.mark.parametrize("case", range(5))
    def test_pullback_contribution_invariance(self, case):
        g = 2 + case % 2
        t = 1 + case % g
        pencil_sq = planted_pencil(g, t, 4, seed=20 + case, smooth_seed=40 + case)
        pencil_irr = planted_pencil(g, t, 2, seed=20 + case, smooth_seed=40 + case)

        # lam* = 4: preimages mu = +-2, two rational fibres
        fibres = [pencil_sq.fibre_at(Fraction(4))] * 2
        rational_nodes = [classify(HyperellipticModel(g, f)).t for f in fibres]
        rational_contribution = sum(rational_nodes)

        # lam* = 2: preimages mu = +-sqrt(2), one orbit with minpoly mu^2 - 2
        fibre = pulled_back_member(pencil_irr)
        signature = orbit_signature(fibre, SQRT2)
        assert signature == number_field_signature(fibre, SQRT2)
        fc = classify_signature(g, *signature)
        orbit_contribution = SQRT2.degree * fc.t

        assert fc.t == t == rational_nodes[0]
        assert orbit_contribution == rational_contribution == 2 * t
        # one orbit record replaces two rational records
        assert SQRT2.degree == 2 and len(fibres) == 2

    def test_orbit_route_matches_rational_route_on_planted_fibre(self):
        pencil = planted_pencil(2, 2, 2)
        fc_orbit = classify_signature(2, *orbit_signature(pulled_back_member(pencil), SQRT2))
        fc_rational = classify(HyperellipticModel(2, pencil.fibre_at(2)))
        assert fc_orbit == fc_rational


class TestStrictBound:
    @pytest.mark.parametrize("seed", range(6))
    def test_strict_inequality_with_singular_fibres(self, seed):
        summary = total_space_euler(seeded_pencil(2, seed))
        assert summary.singular_fibres
        assert summary.e_total > summary.bound


class TestWorseThanNodeFibres:
    TRIPLE_ROOT = UniPoly.from_roots([0]) ** 3 * UniPoly.from_roots([1, 2, 3])
    NODE_BESIDE_CUSP = (UniPoly.from_roots([5]) ** 2 * UniPoly.from_roots([0]) ** 3
                        * UniPoly.from_roots([1]))

    @staticmethod
    def build(triple_root_f0):
        smooth = construct_nodal(2, 0, 77).f
        return Pencil(2, triple_root_f0, smooth)

    def test_triple_root_member_flags_total_as_lower_bound(self):
        summary = total_space_euler(self.build(self.TRIPLE_ROOT))
        worst = next(r for r in summary.singular_fibres if r.parameter == Fraction(0))
        assert worst.fibre_class == FibreKind.NON_NODAL
        assert worst.nodes_per_fibre == 0  # cusp-like point certifies nothing
        assert not summary.euler_exact
        assert summary.e_total >= summary.bound

    def test_node_beside_cusp_keeps_certified_count(self):
        summary = total_space_euler(self.build(self.NODE_BESIDE_CUSP))
        worst = next(r for r in summary.singular_fibres if r.parameter == Fraction(0))
        assert worst.fibre_class == FibreKind.NON_NODAL
        assert worst.nodes_per_fibre == 1  # the double root at 5 is still a node
        assert not summary.euler_exact


class TestOrbitClassifierBranches:
    """The subresultant route on fibres over Q(sqrt 2), written as polynomials
    in x with coefficients in Q[mu] and m = mu^2 - 2, each pinned to the
    number-field oracle."""

    @staticmethod
    def lift(*roots):
        poly = UniPoly((UniPoly.one(),))
        for r in roots:
            poly = poly * UniPoly((UniPoly((-r,)), UniPoly.one()))
        return poly

    X_MINUS_MU = UniPoly((UniPoly((0, -1)), UniPoly.one()))
    X_PLUS_MU = UniPoly((UniPoly((0, 1)), UniPoly.one()))

    def classify(self, f):
        signature = orbit_signature(f, SQRT2)
        assert signature == number_field_signature(f, SQRT2)
        return classify_signature(2, *signature)

    def test_split_fibre_over_extension(self):
        s = self.lift(1, 3) * self.X_MINUS_MU  # (x-1)(x-3)(x-mu)
        fc = self.classify(s * s)
        assert fc.kind == FibreKind.SPLIT_NODAL
        assert (fc.t, fc.intersections, fc.euler_number) == (3, 3, 1)

    def test_nodal_fibre_with_irrational_node(self):
        fc = self.classify(self.X_MINUS_MU ** 2 * self.lift(1, 2, 3, 4))
        assert fc.kind == FibreKind.IRREDUCIBLE_NODAL
        assert (fc.t, fc.geometric_genus, fc.euler_number) == (1, 1, -1)

    def test_two_conjugate_nodes(self):
        fc = self.classify(self.X_MINUS_MU ** 2 * self.X_PLUS_MU ** 2 * self.lift(1, 2))
        assert fc.kind == FibreKind.IRREDUCIBLE_NODAL
        assert (fc.t, fc.geometric_genus, fc.euler_number) == (2, 0, 0)

    def test_cusp_only_fibre(self):
        fc = self.classify(self.X_MINUS_MU ** 3 * self.lift(1, 2, 3))
        assert fc.kind == FibreKind.NON_NODAL
        assert fc.t == 0

    def test_cusp_plus_node_fibre(self):
        fc = self.classify(self.X_MINUS_MU ** 3 * self.lift(1, 1, 2))  # (x-1)^2 node, cusp at mu
        assert fc.kind == FibreKind.NON_NODAL
        assert fc.t == 1

    def test_multiplicity_four(self):
        fc = self.classify(self.X_MINUS_MU ** 4 * self.lift(1, 2))
        assert fc.kind == FibreKind.NON_NODAL
        assert fc.t == 0

    def test_leading_coefficient_divisible_by_m_counts_the_root_at_infinity(self):
        # a member that loses mu degrees mod m has a root of multiplicity mu at x = oo;
        # the oracle sees the affine part alone
        zero = UniPoly.zero()
        simple_root = self.X_MINUS_MU ** 2 * self.lift(1, 2, 3) + UniPoly((zero,) * 6 + (SQRT2,))
        assert number_field_signature(simple_root, SQRT2) == (1, 0, 0)
        assert orbit_signature(simple_root, SQRT2) == (1, 0, 0)  # the node at mu
        double_root = self.X_MINUS_MU ** 2 * self.lift(1, 2) + UniPoly((zero,) * 5 + (SQRT2, SQRT2))
        assert number_field_signature(double_root, SQRT2) == (1, 0, 0)
        assert orbit_signature(double_root, SQRT2) == (2, 0, 0)  # nodes at oo and at mu


def test_negative_node_count_rejected_under_optimisation():
    # the lower-bound check must survive python -O, which strips asserts
    code = (
        "from fractions import Fraction\n"
        "from fibrelab.curves import FibreKind\n"
        "from fibrelab.pencils import SingularFibreRecord, euler_summary\n"
        "if __debug__:\n"
        "    raise SystemExit(2)\n"
        "record = SingularFibreRecord(Fraction(0), 1, -10, FibreKind.IRREDUCIBLE_NODAL)\n"
        "try:\n"
        "    euler_summary(2, [record], 1)\n"
        "except ValueError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
