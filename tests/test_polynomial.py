import random
from decimal import Decimal
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from fibrelab.polynomial import (
    LiteralError,
    UniPoly,
    _int_exact_divide,
    discriminant,
    repeated_part,
    resultant,
    subresultant,
    unipoly_from_literal,
    unipoly_to_literal,
)

from conftest import (
    compose,
    fraction_gcd,
    fraction_squarefree_decomposition,
    gaussian_det,
    random_unipoly,
    sylvester_minor,
    sylvester_rows,
    to_sympy,
)

X = UniPoly((0, 1))
ONE = UniPoly.one()

fractions_st = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
polys_st = st.builds(lambda cs: UniPoly(tuple(cs)),
                     st.lists(fractions_st, min_size=0, max_size=7))


def lin(c) -> UniPoly:
    return X - UniPoly((c,))


class TestUniPolyBasics:
    def test_normalisation_strips_trailing_zeros(self):
        assert UniPoly((1, 2, 0, 0)).coefficients == (Fraction(1), Fraction(2))
        assert UniPoly((0, 0)).is_zero

    def test_degree_conventions(self):
        assert UniPoly.zero().degree == -1
        assert ONE.degree == 0
        assert (X**5).degree == 5

    def test_float_coefficients_rejected(self):
        with pytest.raises(TypeError):
            UniPoly((0.5,))

    def test_coefficients_not_read_exactly_rejected(self):
        for value in (1j, Decimal("0.1")):
            with pytest.raises(TypeError, match=type(value).__name__):
                UniPoly((value, 1))
        # a coefficient in Q[lam]
        assert UniPoly((UniPoly((1, 1)), UniPoly.one())).degree == 1

    def test_divmod_roundtrip(self, rng):
        for _ in range(50):
            a = random_unipoly(rng, 8)
            b = random_unipoly(rng, 4)
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.is_zero or r.degree < b.degree


def planted_poly(rng, max_degree) -> UniPoly:
    """Nonzero leading coefficient (any sign, denominator <= 7) times rational
    linear factors ``(x - p/q)``, ``q <= 7``, and irreducible quadratics, each
    to a power 1..5, with the degree kept at most ``max_degree``."""
    lead = Fraction(rng.choice([-9, -4, -1, 1, 2, 3, 7]), rng.randint(1, 7))
    p = UniPoly((lead,))
    for _ in range(rng.randint(0, 6)):
        if rng.random() < 0.7:
            factor = lin(Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
        else:  # b^2 < 4ac: no rational root
            a, b = rng.randint(1, 4), rng.randint(-4, 4)
            c = Fraction(b * b + rng.randint(1, 9), 4 * a)
            factor = UniPoly((c, Fraction(b), Fraction(a)))
        power = rng.randint(1, 5)
        if p.degree + power * factor.degree <= max_degree:
            p = p * factor**power
    return p


class TestIntegerYun:
    """The Z[x] route against the Fraction-Euclid oracle in conftest."""

    def assert_matches_oracle(self, p):
        assert repeated_part(p) == fraction_gcd(p, p.derivative())

    def test_matches_oracle_on_planted_polynomials(self, rng):
        for _ in range(150):
            self.assert_matches_oracle(planted_poly(rng, 26))

    @pytest.mark.parametrize("mult", [1, 2, 3, 4, 5])
    def test_each_multiplicity_is_recovered(self, mult):
        quadratic = UniPoly((Fraction(5, 2), Fraction(-1), Fraction(3)))
        p = lin(Fraction(-6, 7)) ** mult * quadratic * lin(Fraction(2, 5)) * -7
        self.assert_matches_oracle(p)
        root = lin(Fraction(-6, 7))
        assert (repeated_part(p) % root ** (mult - 1)).is_zero
        assert not (repeated_part(p) % root ** mult).is_zero

    def test_matches_oracle_at_degree_26(self, rng):
        # g = 12 models: planted double roots with denominators up to 7
        for t in (0, 1, 5, 12):
            roots = [Fraction(rng.randint(-20, 20), rng.randint(1, 7)) for _ in range(26 - t)]
            p = UniPoly.from_roots(roots[:t] + roots, leading=Fraction(-3, 5))
            assert p.degree == 26
            self.assert_matches_oracle(p)

    def test_matches_oracle_on_random_dense_polynomials(self, rng):
        for _ in range(60):
            self.assert_matches_oracle(random_unipoly(rng, 12))

    @pytest.mark.parametrize("p", [
        UniPoly((5,)),
        UniPoly((Fraction(-3, 4),)),
        lin(Fraction(1, 2)),
        UniPoly((Fraction(7, 5), Fraction(-3))),
        UniPoly((0, 2)),
    ])
    def test_constants_and_linear_inputs(self, p):
        self.assert_matches_oracle(p)

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError, match="zero polynomial"):
            repeated_part(UniPoly.zero())

    def test_exact_quotient(self):
        # 6(x^2 - 2x + 3) / 6, and by a negative divisor
        assert _int_exact_divide([18, -12, 6], 6) == [3, -2, 1]
        assert _int_exact_divide([18, -12, 6], -3) == [-6, 4, -2]
        assert _int_exact_divide([], 5) == []

    @pytest.mark.parametrize("a, d", [
        ([2, 4, 5], 2),   # the leading coefficient leaves a remainder
        ([3, 6, 9], 2),   # every coefficient does
        ([1, 0, 4], 4),   # only the constant one does
        ([0, 3], -2),     # a negative divisor: 3/(-2) is no integer
    ])
    def test_inexact_quotient_raises(self, a, d):
        with pytest.raises(ArithmeticError, match="inexact"):
            _int_exact_divide(a, d)


class TestFromRoots:
    @staticmethod
    def fraction_product(roots, leading):
        p = UniPoly((leading,))
        for r in roots:
            p = p * lin(r)
        return p

    def test_matches_fraction_product(self, rng):
        for _ in range(100):
            roots = [Fraction(rng.randint(-20, 20), rng.randint(1, 7))
                     for _ in range(rng.randint(0, 8))]
            roots += rng.sample(roots, min(len(roots), rng.randint(0, 3)))  # repeats
            leading = rng.choice([1, -1, 0, 3, Fraction(-5, 3), Fraction(2, 7)])
            got = UniPoly.from_roots(roots, leading=leading)
            want = self.fraction_product(roots, leading)
            assert got == want
            assert unipoly_to_literal(got) == unipoly_to_literal(want)

    def test_accepts_int_and_string_roots(self):
        assert UniPoly.from_roots([1, "1/2"], leading="-2") == self.fraction_product(
            [Fraction(1), Fraction(1, 2)], Fraction(-2))


class TestResultant:
    def test_linear_pair_orientation(self):
        # Res(x - a, x - b) = b - a in this package's orientation
        assert resultant(lin(1), lin(2)) == 1

    def test_shared_root_vanishes(self):
        assert resultant(X, X) == 0

    def test_monic_linear_second_argument_evaluates(self):
        assert resultant(X**2 + ONE, lin(1)) == 2

    def test_two_zero_polynomials_rejected(self):
        with pytest.raises(ValueError):
            resultant(UniPoly.zero(), UniPoly.zero())

    def test_one_zero_polynomial_gives_fraction_zero(self):
        for got in (resultant(UniPoly.zero(), X**2 + ONE), resultant(lin(3), UniPoly.zero())):
            assert got == 0 and isinstance(got, Fraction)

    def test_constant_argument_gives_its_power(self):
        # an empty block leaves a diagonal of the constant, or an empty
        # matrix (determinant 1) when both are constants
        c = UniPoly((Fraction(-2, 3),))
        q = X**3 + lin(5)
        assert resultant(c, q) == Fraction(-2, 3) ** 3
        assert resultant(q, c) == Fraction(-2, 3) ** 3
        assert resultant(c, UniPoly((7,))) == 1

    def test_fraction_coefficients_against_gaussian_det(self, rng):
        # rational coefficients, deg q above and below deg p, and the (p, p')
        # pair, through an oracle that shares no code with subresultant
        for _ in range(20):
            p = UniPoly(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                              for _ in range(rng.randint(2, 7))) + (Fraction(rng.randint(1, 5), 3),))
            q = random_unipoly(rng, 5) * UniPoly((Fraction(1, rng.randint(1, 7)),))
            for a, b in ((p, q), (p, p.derivative())):
                if b.degree < 1:
                    continue
                assert resultant(a, b) == gaussian_det(sylvester_rows(a, b))

    @given(polys_st, polys_st)
    @settings(max_examples=100, deadline=None)
    def test_swap_antisymmetry(self, p, q):
        if p.is_zero or q.is_zero:
            return
        sign = -1 if (p.degree * q.degree) % 2 else 1
        assert resultant(p, q) == sign * resultant(q, p)

    def test_against_sympy_sylvester_determinant(self, rng):
        # independent oracle: build the same q-block-on-top Sylvester matrix
        # with sympy rationals and take sympy's Matrix determinant
        for _ in range(40):
            p = random_unipoly(rng, 6)
            q = random_unipoly(rng, 6)
            if p.degree < 1 or q.degree < 1:
                continue
            m, n = p.degree, q.degree
            p_desc = [sympy.Rational(c.numerator, c.denominator)
                      for c in reversed(p.coefficients)]
            q_desc = [sympy.Rational(c.numerator, c.denominator)
                      for c in reversed(q.coefficients)]
            rows = [[0] * s + q_desc + [0] * (m + n - s - n - 1) for s in range(m)]
            rows += [[0] * s + p_desc + [0] * (m + n - s - m - 1) for s in range(n)]
            expected = sympy.Matrix(rows).det()
            got = resultant(p, q)
            assert sympy.Rational(got.numerator, got.denominator) == expected

    def test_against_sympy_discriminant(self, rng):
        x = sympy.Symbol("x")
        for _ in range(40):
            p = random_unipoly(rng, 6)
            if p.degree < 1:
                continue
            expected = sympy.discriminant(to_sympy(p), x)
            got = discriminant(p)
            assert sympy.Rational(got.numerator, got.denominator) == expected


class TestResultantOverQLam:
    """``resultant`` and ``discriminant`` answer in ``Q[lam]`` when a coefficient lives there."""

    @staticmethod
    def random_pair_part(rng, degree, over_lam):
        # a polynomial in x of the given degree, its coefficients in Q[lam] or in Q
        coeffs = [lam_poly(rng, rng.randint(0, 2)) if over_lam else
                  Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(degree)]
        lead = UniPoly((rng.randint(-3, 3), rng.choice([-2, -1, 1, 3]))) if over_lam else \
            Fraction(rng.choice([-2, 1, 3]), rng.randint(1, 3))
        return UniPoly(tuple(coeffs) + (lead,))

    @staticmethod
    def at(p, lam0):
        return UniPoly(tuple(c(lam0) if isinstance(c, UniPoly) else c for c in p.coefficients))

    def test_commutes_with_evaluation_at_integers(self, rng):
        # in some pairs one factor has rational coefficients only; degrees
        # run over both orders, constants included
        cases = 0
        for _ in range(80):
            rational = rng.choice([None, 0, 1])
            p, q = (self.random_pair_part(rng, rng.randint(0, 4), i != rational) for i in (0, 1))
            res = resultant(p, q)
            assert isinstance(res, UniPoly)
            for lam0 in range(-3, 4):
                ps, qs = self.at(p, lam0), self.at(q, lam0)
                if ps.degree == p.degree and qs.degree == q.degree:
                    assert res(Fraction(lam0)) == resultant(ps, qs), (p, q, lam0)
                    cases += 1
        assert cases >= 400

    def test_discriminant_commutes_with_evaluation_at_integers(self, rng):
        for _ in range(30):
            p = self.random_pair_part(rng, rng.randint(1, 5), True)
            disc = discriminant(p)
            for lam0 in range(-3, 4):
                special = self.at(p, lam0)
                if special.degree == p.degree:
                    assert disc(Fraction(lam0)) == discriminant(special)

    def test_zero_and_constant_arguments_answer_in_the_ring(self):
        lam = UniPoly((UniPoly((0, 1)),))  # lam, a constant in x
        assert resultant(UniPoly.zero(), UniPoly((1, UniPoly((0, 1))))) == UniPoly.zero()
        assert resultant(lam, UniPoly((5,))) == UniPoly.one()
        assert resultant(lam, X**2 + ONE) == UniPoly((0, 0, 1))
        for got in (resultant(X**2, UniPoly((3,))), resultant(UniPoly((2,)), UniPoly((3,))),
                    discriminant(X**2 - ONE), discriminant(lin(4))):
            assert isinstance(got, Fraction)


class TestGaussianDetOracle:
    """The test oracle for scalar determinants, checked on its own."""

    def test_against_sympy_matrix_det(self, rng):
        # mostly-zero entries force zero pivots and row swaps
        for _ in range(40):
            n = rng.randint(1, 6)
            rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < 0.4 else 0
                     for _ in range(n)] for _ in range(n)]
            expected = sympy.Matrix([[sympy.Rational(e.numerator, e.denominator) for e in row]
                                     for row in rows]).det()
            got = gaussian_det(rows)
            assert sympy.Rational(got.numerator, got.denominator) == expected

    def test_empty_singular_and_permutation_signs(self):
        assert gaussian_det([]) == 1
        assert gaussian_det([[1, 2], [Fraction(1, 2), 1]]) == 0
        assert gaussian_det([[0, 1], [1, 0]]) == -1
        assert gaussian_det([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1


def rational_poly(rng, degree, max_den=7) -> UniPoly:
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, max_den)) for _ in range(degree)]
    return UniPoly(tuple(coeffs) + (Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, max_den)),))


def lam_poly(rng, degree, max_den=5) -> UniPoly:
    return UniPoly(tuple(Fraction(rng.randint(-5, 5), rng.randint(1, max_den))
                         for _ in range(degree + 1)))


class TestSubresultants:
    """``subresultant`` against the Sylvester minors of ``conftest.sylvester_minor``."""

    @staticmethod
    def check_every_k(p, q):
        """Compare ``S_k`` for every ``k <= deg q``, ``k < deg p``; return the
        number of ``k`` compared and of defective ``S_k`` (nonzero, ``psc_k = 0``)."""
        ks = range(min(q.degree, p.degree - 1) + 1)
        defective = 0
        for k in ks:
            got = subresultant(p, q, k)
            assert got == [sylvester_minor(p, q, k, j) for j in range(k + 1)], (p, q, k)
            defective += not got[k] and any(got)
        return len(ks), defective

    def test_random_pairs_with_equal_degrees_and_gaps(self, rng):
        cases = 0
        for _ in range(300):
            m = rng.randint(1, 8)
            n = rng.choice([m, m - 1, rng.randint(0, m)])
            cases += self.check_every_k(rational_poly(rng, m), rational_poly(rng, n))[0]
        assert cases >= 1000

    def test_degree_gaps(self, rng):
        # deg p - deg q > 1: S_(deg q) = lc(q)^(deg p - deg q - 1) q opens the chain
        cases = 0
        for _ in range(100):
            n = rng.randint(0, 5)
            p, q = rational_poly(rng, n + rng.randint(2, 5)), rational_poly(rng, n)
            cases += self.check_every_k(p, q)[0]
            k = q.degree
            assert subresultant(p, q, k) == [UniPoly((c * q.leading_coefficient
                                                      ** (p.degree - k - 1),))
                                             for c in q.coefficients]
        assert cases >= 250

    def test_defective_chains(self, rng):
        # planted repeated roots give (f, f') a nontrivial gcd, and polynomials
        # in x^2 lose two degrees per remainder, so psc_j = 0 with S_j != 0
        cases = defective = 0
        for _ in range(150):
            roots = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 2))]
            f = UniPoly.from_roots(roots * rng.randint(2, 3)) * rational_poly(rng, rng.randint(0, 2))
            even_p = compose(rational_poly(rng, rng.randint(1, 4)), X**2)
            even_q = compose(rational_poly(rng, rng.randint(0, even_p.degree // 2 - 1)), X**2) \
                if even_p.degree > 2 else UniPoly((3,))
            for p, q in ((f, f.derivative()), (even_p, even_q), (even_p * X, even_q)):
                counted = self.check_every_k(p, q)
                cases += counted[0]
                defective += counted[1]
        assert cases >= 800 and defective >= 50

    def test_coefficients_in_q_lam_with_vanishing_leading_coefficients(self, rng):
        # lc(p) and lc(q) vanish at small integers, so the node window moves
        cases = 0
        for _ in range(120):
            m = rng.randint(1, 4)
            n = rng.randint(0, m)
            coeffs = []
            for degree in (m, n):
                lead = UniPoly.from_roots([rng.randint(0, 4) for _ in range(rng.randint(1, 2))],
                                          leading=Fraction(rng.randint(1, 5), rng.randint(1, 3)))
                coeffs.append(tuple(lam_poly(rng, rng.randint(0, 1)) for _ in range(degree))
                              + (lead,))
            p, q = (UniPoly(c) for c in coeffs)
            if rng.random() < 0.3:
                q = p.derivative()
            cases += self.check_every_k(p, q)[0]
        assert cases >= 250

    def test_least_nonvanishing_psc_is_gcd_degree(self, rng):
        # planted common factors of degree 0..3; S_k is a multiple of the gcd
        for _ in range(30):
            common = UniPoly.from_roots([rng.randint(-4, 4) for _ in range(rng.randint(0, 3))])
            p = common * random_unipoly(rng, 4)
            q = common * random_unipoly(rng, 3)
            if q.degree < 1 or p.degree <= q.degree:
                continue
            gcd = fraction_gcd(p, q)
            k = next(k for k in range(q.degree + 1) if subresultant(p, q, k)[k])
            assert k == gcd.degree
            s_k = UniPoly(tuple(c.coefficients[0] if c else 0 for c in subresultant(p, q, k)))
            assert s_k.monic() == gcd

    def test_subresultants_commute_with_specialisation(self):
        # coefficients in Q[lam]: evaluating S_k at a rational lam gives S_k of
        # the specialised pair, since the degrees in x are kept
        lam, one = UniPoly((0, 1)), UniPoly.one()
        p = UniPoly((lam * lam, -(2 * lam), one)) * UniPoly((-one, one))  # (x - lam)^2 (x - 1)
        q = p.derivative()
        for value in (Fraction(1), Fraction(2), Fraction(-1, 3)):
            special = UniPoly(tuple(c(value) for c in p.coefficients))
            for k in range(q.degree + 1):
                assert ([c(value) for c in subresultant(p, q, k)]
                        == [c(Fraction(0)) for c in subresultant(special, special.derivative(), k)])

    @pytest.mark.parametrize("p, q, k", [
        (X**2, X**3, 0),   # deg p < deg q
        (X**2, X, 2),      # k = deg p
        (X**2 + ONE, X**2, 2),
        (X**3, X, -1),
        (X**3, X, 2),      # k > deg q
    ])
    def test_out_of_range_index_rejected(self, p, q, k):
        with pytest.raises(ValueError, match="subresultant"):
            subresultant(p, q, k)


class TestDiscriminant:
    def test_quadratic_fixture(self):
        assert discriminant(X**2 + ONE) == -4

    def test_repeated_root_vanishes(self):
        assert discriminant(lin(1) ** 2) == 0

    def test_depressed_cubic_fixture(self):
        assert discriminant(X**3 + X) == -4

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            discriminant(ONE)

    def test_depressed_cubic_closed_form(self, rng):
        for _ in range(25):
            a, b = Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9))
            p = X**3 + UniPoly((0, a)) + UniPoly((b,))
            assert discriminant(p) == -(4 * a**3 + 27 * b**2)

    def test_quadratic_closed_form(self, rng):
        for _ in range(25):
            a = Fraction(rng.choice([c for c in range(-9, 10) if c]))
            b, c = Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9))
            assert discriminant(UniPoly((c, b, a))) == b**2 - 4 * a * c

    @given(polys_st)
    @settings(max_examples=80, deadline=None)
    def test_vanishing_iff_repeated_factor(self, p):
        if p.degree < 1:
            return
        repeated = any(m >= 2 for _, m in fraction_squarefree_decomposition(p))
        assert (discriminant(p) == 0) == repeated


class TestLiterals:
    def test_unipoly_roundtrip(self):
        p = UniPoly((Fraction(0), Fraction(-1, 2), Fraction(1)))
        literal = unipoly_to_literal(p)
        assert literal == ["0", "-1/2", "1"]
        assert unipoly_from_literal(literal) == p

    def test_bare_integers_accepted(self):
        assert unipoly_from_literal([0, -1, 1]) == UniPoly((0, -1, 1))

    def test_bad_tokens_rejected(self):
        with pytest.raises(LiteralError):
            unipoly_from_literal(["1/0"])
        with pytest.raises(LiteralError):
            unipoly_from_literal("not-a-list")
        with pytest.raises(LiteralError):
            unipoly_from_literal([1.5])
        # forms Fraction() accepts (some only on newer Pythons) that are
        # outside the integer-or-"p/q" grammar
        for tok in ["1_0", "1.5", "1e1", " 1/2 ", "+2", "\u0663", "1/2\n", "-"]:
            with pytest.raises(LiteralError):
                unipoly_from_literal(["1", tok])


class TestNormalisationAudit:
    """Every emitted rational is in lowest terms with positive denominator."""

    def test_fraction_outputs_are_normalised(self, rng):
        outputs = []
        for _ in range(40):
            p = random_unipoly(rng, 7)
            q = random_unipoly(rng, 5)
            outputs.extend(p.coefficients)
            outputs.append(resultant(p, q) if not (p.is_zero or q.is_zero) else Fraction(0))
            if p.degree >= 1:
                outputs.append(discriminant(p))
                outputs.extend(repeated_part(p).coefficients)
        for value in outputs:
            assert value.denominator > 0
            from math import gcd
            assert gcd(abs(value.numerator), value.denominator) == 1
