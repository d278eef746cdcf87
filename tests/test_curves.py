import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibrelab.curves import (
    DEGREE_DROP,
    FibreKind,
    HyperellipticModel,
    classify,
    classify_signature,
    construct_nodal,
    construct_split,
    j_invariant,
    seeded_rationals,
    singular_points,
)
from fibrelab.polynomial import UniPoly, unipoly_from_literal

from conftest import compose, yun_signature, yun_singular_points

X = UniPoly((0, 1))


def model(g, rooted) -> HyperellipticModel:
    return HyperellipticModel(g, rooted)


class TestModelValidation:
    def test_degree_drop_rejected(self):
        with pytest.raises(ValueError, match="degree drop"):
            HyperellipticModel(2, UniPoly.from_roots([0, 1, 2, 3, 4]))

    def test_degree_excess_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            HyperellipticModel(2, UniPoly.from_roots(range(7)))

    def test_dict_roundtrip(self):
        m = construct_nodal(3, 2, 11)
        assert HyperellipticModel.from_dict(m.to_dict()) == m


class TestClassify:
    def test_smooth_sextic(self):
        fc = classify(model(2, UniPoly.from_roots([0, 1, 2, 3, 4, 5])))
        assert fc.kind == FibreKind.SMOOTH
        assert (fc.t, fc.geometric_genus, fc.euler_number) == (0, 2, -2)

    def test_one_node(self):
        f = UniPoly.from_roots([0]) ** 2 * UniPoly.from_roots([1, 2, 3, 4])
        fc = classify(model(2, f))
        assert fc.kind == FibreKind.IRREDUCIBLE_NODAL
        assert (fc.t, fc.geometric_genus, fc.euler_number) == (1, 1, -1)

    def test_split_square(self):
        fc = classify(model(2, UniPoly.from_roots([0, 1, 2]) ** 2))
        assert fc.kind == FibreKind.SPLIT_NODAL
        assert (fc.t, fc.intersections, fc.euler_number) == (3, 3, 1)

    def test_triple_root_is_non_nodal(self):
        f = UniPoly.from_roots([0]) ** 3 * UniPoly.from_roots([1, 2, 3])
        fc = classify(model(2, f))
        assert fc.kind == FibreKind.NON_NODAL
        assert fc.t == 0  # no certified nodes
        assert fc.euler_number is None

    def test_node_plus_cusp_certifies_only_the_node(self):
        f = UniPoly.from_roots([1]) ** 2 * UniPoly.from_roots([0]) ** 3 * UniPoly.from_roots([5])
        fc = classify(model(2, f))
        assert fc.kind == FibreKind.NON_NODAL
        assert fc.t == 1

    def test_tangent_components_are_non_nodal(self):
        # f = ((x - 1) x^2)^2: a perfect square, but the two components are
        # tangent at 0 (fourth power), so the split-nodal shape is refused
        f = UniPoly.from_roots([1]) ** 2 * UniPoly.from_roots([0]) ** 4
        fc = classify(model(2, f))
        assert fc.kind == FibreKind.NON_NODAL

    def test_leading_coefficient_is_irrelevant(self):
        fc = classify(model(2, UniPoly.from_roots([0, 1, 2], leading=Fraction(-5, 3)) ** 2 * UniPoly((Fraction(3, 5),))))
        assert fc.kind == FibreKind.SPLIT_NODAL


class TestClassifySignature:
    def test_signature_outside_degree_2g_plus_2_rejected(self):
        # d2 = 0 with d1 = 4 > g + 1 would need eight roots at genus 2
        with pytest.raises(ValueError, match="do not fit"):
            classify_signature(2, 4, 0, 0)

    def test_signature_branches(self):
        assert classify_signature(2, 0, 0, 0).kind == FibreKind.SMOOTH
        assert classify_signature(2, 3, 0, 0).kind == FibreKind.SPLIT_NODAL
        assert classify_signature(2, 2, 0, 0).t == 2
        # a fourth power beside a double root: t counts the double root only
        fc = classify_signature(3, 4, 2, 1)
        assert (fc.kind, fc.t) == (FibreKind.NON_NODAL, 1)


class TestConstructions:
    @pytest.mark.parametrize("g", [2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_nodal_roundtrip(self, g, seed):
        for t in range(g + 1):
            fc = classify(construct_nodal(g, t, seed))
            if t == 0:
                assert fc.kind == FibreKind.SMOOTH
            else:
                assert fc.kind == FibreKind.IRREDUCIBLE_NODAL
            assert fc.t == t
            assert fc.geometric_genus == g - t

    def test_node_count_out_of_range(self):
        with pytest.raises(ValueError, match=r"out of range \[0, g\]"):
            construct_nodal(2, 3, 0)
        with pytest.raises(ValueError, match=r"out of range \[0, g\]"):
            construct_nodal(2, -1, 0)

    @pytest.mark.parametrize("g", [2, 3, 5])
    def test_split_shape(self, g):
        fc = classify(construct_split(g, 23))
        assert fc.kind == FibreKind.SPLIT_NODAL
        assert fc.intersections == g + 1
        assert fc.euler_number == 3 - g
        # arithmetic genus of two lines glued at k points is k - 1
        assert fc.intersections - 1 == g

    def test_determinism(self):
        assert construct_nodal(4, 2, 99) == construct_nodal(4, 2, 99)
        assert construct_split(3, 5) == construct_split(3, 5)

    def test_seeded_streams_are_collision_free(self):
        values = seeded_rationals(123, 40)
        assert len(set(values)) == 40


class TestEulerIdentities:
    """e = e(normalisation) - #nodes, cross-checked against the closed forms."""

    @pytest.mark.parametrize("g,t", [(2, 1), (2, 2), (3, 1), (3, 3), (5, 4)])
    def test_irreducible_gluing_count(self, g, t):
        fc = classify(construct_nodal(g, t, 7))
        e_normalisation = 2 - 2 * fc.geometric_genus
        assert fc.euler_number == e_normalisation - fc.t
        assert fc.euler_number == 2 - 2 * g + t

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_split_gluing_count(self, g):
        fc = classify(construct_split(g, 7))
        # two spheres, e = 2 each, glued at g + 1 point-pairs
        assert fc.euler_number == 4 - (g + 1) == 3 - g


class TestAffineInvariance:
    def test_classification_invariant_under_substitution(self, rng):
        for _ in range(100):
            g = rng.choice([2, 3])
            t = rng.randint(0, g)
            m = construct_nodal(g, t, rng.randrange(2**32))
            alpha = Fraction(rng.choice([c for c in range(-5, 6) if c]),
                             rng.randint(1, 4))
            beta = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            substituted = HyperellipticModel(g, compose(m.f, UniPoly((beta, alpha))))
            assert classify(substituted) == classify(m)


class TestSingularPoints:
    def test_squarefree_has_none(self):
        assert singular_points(construct_nodal(2, 0, 3)) == []

    def test_planted_rational_node(self):
        f = (X - UniPoly((Fraction(1, 2),))) ** 2 * UniPoly.from_roots([1, 2, 3, 4])
        pts = singular_points(model(2, f))
        assert [(p.location, p.local_type) for p in pts] == [(Fraction(1, 2), "node")]

    def test_conjugate_pair_reported_by_minimal_polynomial(self):
        sqrt2 = UniPoly((Fraction(-2), Fraction(0), Fraction(1)))
        f = sqrt2**2 * UniPoly.from_roots([1, 2])
        pts = singular_points(model(2, f))
        assert len(pts) == 1
        assert pts[0].location == sqrt2
        assert pts[0].local_type == "node"
        assert pts[0].conjugates == 2

    def test_worse_points_flagged(self):
        f = UniPoly.from_roots([0]) ** 3 * UniPoly.from_roots([1, 2, 3])
        pts = singular_points(model(2, f))
        assert [(p.location, p.local_type) for p in pts] == [(Fraction(0), "worse")]

    def test_node_count_matches_classify(self, rng):
        for _ in range(25):
            g = rng.choice([2, 3, 4])
            t = rng.randint(1, g)
            m = construct_nodal(g, t, rng.randrange(2**32))
            total = sum(p.conjugates for p in singular_points(m) if p.local_type == "node")
            assert total == classify(m).t


def planted_model(rng, g) -> HyperellipticModel:
    """A degree-``2g+2`` model over Q with planted repeated roots.

    Rational roots ``p/q`` (``q <= 4``) to powers 1..5 and quadratic orbits
    ``x^2 - d`` (``d`` not a square) to powers 1..3, filled up to the degree;
    one model in five is a split member ``c s^2`` with ``s`` squarefree.
    """
    n = 2 * g + 2
    lead = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4))
    roots, squares = set(), set()

    def fresh_factor(room):
        if room >= 2 and rng.random() < 0.3:
            d = rng.choice([d for d in (-3, -2, -1, 2, 3, 5, 6, 7) if d not in squares])
            squares.add(d)
            return UniPoly((Fraction(-d), Fraction(0), Fraction(1)))
        r = Fraction(rng.randint(-20, 20), rng.randint(1, 4))
        while r in roots:
            r = Fraction(rng.randint(-20, 20), rng.randint(1, 4))
        roots.add(r)
        return X - UniPoly((r,))

    split = rng.random() < 0.2
    f = UniPoly((lead,))
    want = g + 1 if split else n
    while f.degree < want:
        room = want - f.degree
        factor = fresh_factor(room)
        top = 1 if split else 3 if factor.degree == 2 else 5
        power = rng.choice((1, 1, 1, 1, 2, 2, 2, *range(3, top + 1)))
        f = f * factor ** min(power, top, room // factor.degree)
    return HyperellipticModel(g, f * f / lead if split else f)


def unchecked_model(g, f) -> HyperellipticModel:
    """A model whose degree may exceed ``2g + 2``: the only way to hand
    ``classify`` a signature outside :func:`classify_signature`'s range."""
    m = object.__new__(HyperellipticModel)
    object.__setattr__(m, "g", g)
    object.__setattr__(m, "f", f)
    return m


def differential_models():
    """315 seeded planted models at g = 2..8, and each one again under a
    genus too small for its degree."""
    rng = random.Random(0x5F1B)
    for g in range(2, 9):
        for _ in range(45):
            m = planted_model(rng, g)
            yield m
            yield unchecked_model(rng.randint(1, g - 1), m.f)


def outcome(call, *args):
    try:
        return call(*args)
    except ValueError as exc:
        return ("error", str(exc))


class TestGcdChainAgainstYun:
    """``classify`` and ``singular_points`` against the Yun route of conftest."""

    def test_classify_matches_the_summed_decomposition(self):
        kinds, errors = set(), 0
        for m in differential_models():
            expected = outcome(lambda: classify_signature(m.g, *yun_signature(m.f)))
            assert outcome(classify, m) == expected, (m.g, m.f)
            if isinstance(expected, tuple):
                errors += 1
            else:
                kinds.add(expected.kind)
        assert kinds == set(FibreKind) and errors > 0

    def test_singular_points_match_the_decomposition_route(self):
        local_types = set()
        for m in differential_models():
            points = [(p.location, p.local_type) for p in singular_points(m)]
            assert points == yun_singular_points(m.f), (m.g, m.f)
            local_types.update((isinstance(loc, UniPoly), kind) for loc, kind in points)
        assert local_types == {(False, "node"), (False, "worse"), (True, "node"),
                               (True, "worse")}


class TestJInvariant:
    def test_lemniscatic_fixture(self):
        assert j_invariant(1, 0) == 1728

    def test_zero_numerator_fixture(self):
        assert j_invariant(0, 1) == 0

    def test_singular_cubic_rejected(self):
        with pytest.raises(ValueError, match="singular cubic"):
            j_invariant(-3, 2)

    @given(st.integers(-20, 20), st.integers(-20, 20),
           st.builds(Fraction, st.integers(-8, 8), st.integers(1, 8)))
    @settings(max_examples=100, deadline=None)
    def test_weierstrass_rescaling_invariance(self, a, b, u):
        if u == 0 or 4 * Fraction(a) ** 3 + 27 * Fraction(b) ** 2 == 0:
            return
        assert j_invariant(u**4 * a, u**6 * b) == j_invariant(a, b)
