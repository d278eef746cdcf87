import itertools
import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import (
    gf_ddf_zassenhaus,
    gf_div,
    gf_gcd,
    gf_irreducible_p,
    gf_mul,
    gf_sqf_p,
)

from fibrelab import factorization
from fibrelab.curves import construct_nodal, construct_split
from fibrelab.factorization import (
    _certified_irreducible,
    _distinct_degrees,
    _fp_divmod,
    _fp_gcd,
    _good_primes,
    galois_orbits,
    irreducible_factors,
)
from fibrelab.pencils import Pencil, pencil_discriminant, seeded_pencil
from fibrelab.polynomial import UniPoly, _integer_primitive, repeated_part

from conftest import QUADRATIC_BASE_POINTS


def sympy_factors(p: UniPoly):
    """Monic irreducible factors of ``p`` by sympy's ``factor_list``, in the package's order."""
    lam = sympy.Symbol("lam")
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(p.coefficients)], lam, domain="QQ")
    out = []
    for f, mult in poly.factor_list()[1]:
        coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(f.all_coeffs())]
        out.append((UniPoly(tuple(coeffs)).monic(), mult))
    return sorted(out, key=lambda fm: (fm[0].degree, fm[0].coefficients))


def certified(p: UniPoly) -> bool:
    return not _certified_irreducible(_integer_primitive(p))


@pytest.fixture
def no_sympy(monkeypatch):
    """Fail the test if ``irreducible_factors`` hands a cofactor to sympy."""
    def fail(f):
        raise AssertionError(f"sympy asked to factor the cofactor {f}")

    monkeypatch.setattr(factorization, "_sympy_factors", fail)


def dense(rng, degree, height=9, max_den=1, leading=None) -> UniPoly:
    coeffs = [Fraction(rng.randint(-height, height), rng.randint(1, max_den))
              for _ in range(degree)]
    return UniPoly(tuple(coeffs) + (Fraction(leading or rng.choice([-3, -1, 1, 2, 5])),))


def from_sympy(expr) -> UniPoly:
    x = sympy.Symbol("x")
    return UniPoly(tuple(Fraction(int(c)) for c in reversed(sympy.Poly(expr, x).all_coeffs())))


class TestCertificate:
    @pytest.mark.parametrize("seed", range(6))
    def test_dense_polynomials_are_certified_and_match_sympy(self, seed):
        # seed 1 and 4 carry a leading coefficient divisible by 3, 5 and 7
        rng = random.Random(f"certificate:{seed}")
        p = dense(rng, 24 + seed, max_den=7, leading=105 if seed % 3 == 1 else None)
        expected = sympy_factors(p)
        assert expected == [(p.monic(), 1)]
        assert certified(p)
        assert irreducible_factors(p) == expected

    @pytest.mark.parametrize("degrees", [(12, 13), (1, 24), (5, 20), (8, 8, 9)])
    def test_products_are_never_certified(self, degrees):
        rng = random.Random(f"product:{degrees}")
        p = UniPoly.one()
        for d in degrees:
            p = p * dense(rng, d)
        assert not certified(p)
        assert irreducible_factors(p) == sympy_factors(p)

    def test_equal_degree_modular_factors_are_all_counted(self):
        # modulo every prime p not dividing 26, Phi_13 and Phi_26 split into
        # factors of one degree each, so only a sum over several factors of
        # one degree reaches the true factor degree 12
        x = sympy.Symbol("x")
        p = from_sympy(sympy.cyclotomic_poly(13, x) * sympy.cyclotomic_poly(26, x))
        assert p.degree == 24
        assert not certified(p)
        assert irreducible_factors(p) == sympy_factors(p)

    def test_primes_dividing_the_leading_coefficient_are_skipped(self):
        # 101 * 103 * x^12 + 1 and its successor: modulo 101 or 103 both reduce to constants
        g = UniPoly((1,) + (0,) * 11 + (101 * 103,))
        p = g * (g + UniPoly((1,)))
        assert not certified(p)
        assert irreducible_factors(p) == sympy_factors(p)

    def test_a_square_is_never_certified(self):
        q = dense(random.Random("square"), 13, max_den=3)
        p = q * q
        assert not certified(p)
        assert irreducible_factors(p) == sympy_factors(p) == [(q.monic(), 2)]

    def test_pencil_discriminant_is_certified(self, no_sympy):
        disc = pencil_discriminant(seeded_pencil(6, 0))
        assert disc.degree == 26
        assert certified(disc)
        assert irreducible_factors(disc) == sympy_factors(disc) == [(disc.monic(), 1)]

    @pytest.mark.parametrize("t", [1, 2, "split"])
    def test_planted_discriminants_are_peeled_then_certified(self, t, no_sympy):
        # the member at lam = 0 is singular, so lam divides Disc; the peel
        # takes it, and the certificate proves the cofactor irreducible
        member = construct_split(6, 5) if t == "split" else construct_nodal(6, t, 5)
        disc = pencil_discriminant(Pencil(6, member.f, construct_nodal(6, 0, 6).f))
        assert disc.degree >= 24
        assert not certified(disc)
        factors = irreducible_factors(disc)
        assert factors == sympy_factors(disc)
        assert UniPoly((0, 1)) in [f for f, _ in factors]

    def test_irreducible_but_split_modulo_every_prime_is_not_certified(self):
        # x^4 - 10x^2 + 1, the minimal polynomial of sqrt 2 + sqrt 3
        p = UniPoly((Fraction(1), Fraction(0), Fraction(-10), Fraction(0), Fraction(1)))
        assert not certified(p)
        assert irreducible_factors(p) == sympy_factors(p) == [(p, 1)]

    @pytest.mark.parametrize("g", [8, 9, 10])
    def test_seeded_pencils_with_many_skipped_primes_are_certified(self, g, no_sympy):
        # most good primes near 101 divide a difference of two of the pencil's
        # roots, so Disc is not squarefree modulo them; skipped primes are not
        # counted against the budget
        disc = pencil_discriminant(seeded_pencil(g, 0))
        assert irreducible_factors(disc) == sympy_factors(disc) == [(disc.monic(), 1)]

    @pytest.mark.parametrize("coeffs", [
        # degree 8, after (lam - 1)^2: a linear factor modulo each of the first 13
        # good primes, proved irreducible at the 14th, 167
        (-33402084839265542400, 3736616332553673148800, -12053930327365659442884,
         -40274972056475951064948, 283610690376725728008711, -630939211248609821499248,
         699303473031464318833638, -392593761311966108220732, 89247491916883111379063),
        # degree 10: factor degrees 2 and 8 possible through 12 primes, none at the 13th, 163
        (63372426062400000000, -2626109657611776000000, 30031221089820182760000,
         -284575359384894858480800, 1690678157155626476060580, -6155237513773821318414708,
         14225862709935422290826845, -20893064042260265000839644,
         18781941011971564687481202, -9385863766059065847947000,
         1992919236509269725859125),
    ], ids=["degree8", "degree10"])
    def test_pencil_discriminant_cofactors_needing_more_than_twelve_primes(
            self, coeffs, no_sympy):
        p = UniPoly(coeffs)
        assert certified(p)
        assert irreducible_factors(p) == sympy_factors(p) == [(p.monic(), 1)]

    def test_skipped_primes_do_not_count_against_the_budget(self, no_sympy):
        # x^6 - D, Eisenstein at 101, is not squarefree modulo any of the first
        # 16 good primes, which all divide D; the fifth prime tried, 199, proves it
        primes = [101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179]
        assert primes == list(itertools.islice(_good_primes(1), 16))
        p = UniPoly((-math.prod(primes), 0, 0, 0, 0, 0, 1))
        assert certified(p)
        assert irreducible_factors(p) == sympy_factors(p) == [(p, 1)]

    def test_every_degree_runs_the_certificate(self, no_sympy):
        # no degree gate: a dense polynomial of degree 5 is proved without sympy
        p = dense(random.Random("below"), 5)
        assert irreducible_factors(p) == sympy_factors(p) == [(p.monic(), 1)]


def chosen_product(rng, degrees, p):
    """A product over ``F_p`` of distinct random monic irreducible factors of the given
    degrees, as a list from the constant term up."""
    factors = []
    for d in degrees:
        while True:
            g = [1] + [rng.randrange(p) for _ in range(d)]  # sympy's order, leading first
            if g not in factors and gf_irreducible_p(g, p, ZZ):
                factors.append(g)
                break
    prod = [1]
    for g in factors:
        prod = gf_mul(prod, g, p, ZZ)
    return prod[::-1]


class TestKernel:
    @pytest.mark.parametrize("p", [101, 103, 211])
    def test_degree_sets_match_sympys_distinct_degree_factorization(self, p):
        rng = random.Random(f"kernel:{p}")
        inputs = []
        for n in range(1, 41):
            while True:
                f = [rng.randrange(p) for _ in range(n)] + [1]
                if gf_sqf_p(f[::-1], p, ZZ):
                    break
            inputs.append(f)
        # all linear, so the product of the h_d - x is 0 mod f; four factors of one
        # degree; no factor of degree above n/2; exactly one
        for degrees in [(1,) * 12, (3,) * 4, (1, 2, 3, 4, 4), (1, 3, 12)]:
            inputs.append(chosen_product(rng, degrees, p))
        for f in inputs:
            expected = [(d, (len(g) - 1) // d) for g, d in gf_ddf_zassenhaus(f[::-1], p, ZZ)]
            assert _distinct_degrees(f, p) == expected, (p, f)

    @pytest.mark.parametrize("p", [101, 103, 211])
    def test_division_and_gcd_match_sympys_gf_div_and_gf_gcd(self, p):
        rng = random.Random(f"euclid:{p}")

        def residues(degree):  # from the constant term up, leading coefficient nonzero
            return [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]

        for _ in range(100):
            a, b = residues(rng.randint(0, 24)), residues(rng.randint(0, 12))
            b[-1] = rng.randrange(2, p)  # never monic
            if rng.random() < 0.5:  # a common factor, so that the gcd is not 1
                common = residues(rng.randint(1, 6))[::-1]
                a = gf_mul(a[::-1], common, p, ZZ)[::-1]
                b = gf_mul(b[::-1], common, p, ZZ)[::-1]
            quot, rem = gf_div(a[::-1], b[::-1], p, ZZ)
            assert _fp_divmod(a, b, p) == ([int(c) for c in reversed(quot)],
                                           [int(c) for c in reversed(rem)]), (a, b)
            assert _fp_gcd(a, b, p) == [int(c) for c in reversed(gf_gcd(a[::-1], b[::-1], p, ZZ))]

    def test_slots_that_could_overflow_are_refused_before_any_work(self, monkeypatch):
        # 8 products of residues mod 2^31 - 1 can exceed 2^64
        def fail(c):
            raise AssertionError("packed a polynomial")

        monkeypatch.setattr(factorization, "_pack", fail)
        with pytest.raises(OverflowError):
            _distinct_degrees([3, 0, 0, 0, 0, 0, 0, 0, 1], 2 ** 31 - 1)

    def test_the_largest_prime_within_the_slot_bound(self):
        # 8 p^2 < 2^64 for this p, and not for the next prime
        p, f = 1518500213, [5, 0, 7, 0, 0, 1, 0, 2, 1]
        expected = [(d, (len(g) - 1) // d) for g, d in gf_ddf_zassenhaus(f[::-1], p, ZZ)]
        assert _distinct_degrees(f, p) == expected

    def test_good_primes_start_at_101_and_skip_divisors_of_the_leading_coefficient(self):
        primes = _good_primes(103 * 109)
        assert [next(primes) for _ in range(4)] == [101, 107, 113, 127]


def linear_product(rng) -> UniPoly:
    """Rational roots with denominators up to 7, some repeated, times a leading coefficient
    of either sign, possibly fractional; degree at most 23."""
    roots = [Fraction(rng.randint(-12, 12), rng.randint(1, 7)) for _ in range(rng.randint(1, 9))]
    roots += [rng.choice(roots) for _ in range(rng.randint(0, 8))]
    lead = Fraction(rng.choice([-7, -3, -1, 1, 2, 5]), rng.randint(1, 7))
    return UniPoly.from_roots(roots, leading=lead)


def quadratic_product(rng) -> UniPoly:
    """Irreducible quadratics (b^2 < 4ac), each to a power 1..3, times an optional
    rational linear factor and a leading coefficient of either sign; degree at most 23."""
    p = UniPoly((Fraction(rng.choice([-5, -2, -1, 1, 3]), rng.randint(1, 7)),))
    if rng.random() < 0.5:
        p = p * UniPoly.from_roots([Fraction(rng.randint(-9, 9), rng.randint(1, 7))])
    for _ in range(rng.randint(1, 4)):
        a, b = rng.randint(1, 5), rng.randint(-5, 5)
        c = Fraction(b * b + rng.randint(1, 9), 4 * a)
        power = rng.randint(1, 3)
        if p.degree + 2 * power < 24:
            p = p * UniPoly((c, Fraction(b), Fraction(a))) ** power
    return p


def planted_discriminant(g, t, seed) -> UniPoly:
    member = construct_split(g, seed) if t == "split" else construct_nodal(g, t, seed)
    return pencil_discriminant(Pencil(g, member.f, construct_nodal(g, 0, seed + 100).f))


IRREDUCIBLE_CUBIC = UniPoly((-2, 0, 0, 1))  # x^3 - 2


class TestSympyRoute:
    """Differential tests: whichever stage answers, the factors equal those of
    sympy's ``factor_list`` over QQ (``sympy_factors``), the oracle."""

    def test_products_of_linear_factors(self):
        rng = random.Random("linear")
        for _ in range(80):
            p = linear_product(rng)
            assert irreducible_factors(p) == sympy_factors(p)

    def test_products_of_irreducible_quadratics(self):
        rng = random.Random("quadratic")
        for _ in range(60):
            p = quadratic_product(rng)
            assert irreducible_factors(p) == sympy_factors(p)

    @pytest.mark.parametrize("g,ts", [(2, (1, 2, "split")), (3, (1, 2, 3, "split"))],
                             ids=["g2", "g3"])
    def test_planted_pencil_discriminants(self, g, ts):
        for t in ts:
            for seed in range(10):
                disc = planted_discriminant(g, t, seed)
                assert disc.degree > 0
                factors = irreducible_factors(disc)
                assert factors == sympy_factors(disc)
                assert UniPoly((0, 1)) in [f for f, _ in factors]

    @pytest.mark.parametrize("g", range(2, 13))
    def test_census_repeated_parts(self, g, no_sympy):
        # u1 = gcd(f, f') of a nodal or split model is a product of rational linear factors;
        # at g = 12 the split model has the roots 17/4 and -4/5, which meet modulo 101
        # and are parted by the second peel, at 103
        for t in range(1, g + 2):
            model = construct_split(g, t) if t > g else construct_nodal(g, t, t)
            u1 = repeated_part(model.f)
            assert irreducible_factors(u1) == sympy_factors(u1)

    @pytest.mark.parametrize("g", range(2, 13))
    def test_census_repeated_parts_with_integer_roots_are_peeled_whole(self, g, no_sympy):
        # distinct integer roots in [-20, 20], as the curve-census benchmark plants them,
        # never meet modulo 101, so the peel alone splits u1
        rng = random.Random(f"census:{g}")
        for t in range(1, g + 2):
            roots = rng.sample(range(-20, 21), 2 * g + 2 - t)
            u1 = repeated_part(UniPoly.from_roots(roots[:t] + roots))
            assert irreducible_factors(u1) == sympy_factors(u1)

    @pytest.mark.parametrize("g", range(2, 9))
    def test_generic_pencil_discriminants(self, g, no_sympy):
        disc = pencil_discriminant(seeded_pencil(g, 1))
        assert disc.degree == 4 * g + 2
        assert irreducible_factors(disc) == sympy_factors(disc)

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_symmetric_pencils(self, g):
        # f1(x) = f0(-x): f_(1 - lam)(x) = f_lam(-x), so Disc(lam) = Disc(1 - lam)
        f0 = seeded_pencil(g, 2).f0
        f1 = UniPoly(tuple(c * (-1) ** k for k, c in enumerate(f0.coefficients)))
        disc = pencil_discriminant(Pencil(g, f0, f1))
        assert irreducible_factors(disc) == sympy_factors(disc)

    def test_square_of_an_irreducible_quadratic(self):
        q = UniPoly((1, 1, 1))
        assert irreducible_factors(q * q * 3) == sympy_factors(q * q) == [(q, 2)]

    @pytest.mark.parametrize("powers", [(2, 1, 0), (3, 2, 1), (1, 4, 2)])
    def test_cofactors_with_square_factors_are_split_before_sympy(self, powers, no_sympy):
        # every prime divides the discriminant of (x^2 - 2)^2 (x^3 - 3), so the
        # certificate skips them all; the squarefree parts are certified one by one
        q2, q3, q4 = UniPoly((-2, 0, 1)), UniPoly((-3, 0, 0, 1)), UniPoly((1, 1, 0, 0, 1))
        p = q2 ** powers[0] * q3 ** powers[1] * q4 ** powers[2] * Fraction(-5, 3)
        assert not certified(p)
        assert irreducible_factors(p) == sympy_factors(p) == [
            (q, k) for q, k in zip((q2, q3, q4), powers) if k]

    def test_base_point_pencil_discriminant(self, no_sympy):
        disc = pencil_discriminant(QUADRATIC_BASE_POINTS)
        factors = irreducible_factors(disc)
        assert factors == sympy_factors(disc)
        assert [(m.degree, mult) for m, mult in factors] == [(2, 2), (6, 1)]

    @pytest.mark.parametrize("k", range(1, 6))
    def test_zero_roots(self, k, no_sympy):
        p = UniPoly((0,) * k + IRREDUCIBLE_CUBIC.coefficients) * Fraction(-2, 3)
        assert irreducible_factors(p) == sympy_factors(p) == [
            (UniPoly((0, 1)), k), (IRREDUCIBLE_CUBIC, 1)]

    @pytest.mark.parametrize("mults", [(1, 2, 3), (7, 1, 4), (5, 6, 7)])
    def test_repeated_rational_roots_with_denominators_dividing_the_leading_coefficient(
            self, mults, no_sympy):
        roots = [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6)]
        expanded = [r for r, m in zip(roots, mults) for _ in range(m)]
        p = UniPoly.from_roots(expanded, leading=6 ** sum(mults)) * IRREDUCIBLE_CUBIC
        assert irreducible_factors(p) == sympy_factors(p)

    def test_a_root_of_height_ten_to_the_thirty(self, no_sympy):
        root = Fraction(10 ** 30 + 7, 3)
        p = UniPoly.from_roots([root, -1], leading=3) * UniPoly((1, 0, 1))
        assert irreducible_factors(p) == sympy_factors(p)
        assert galois_orbits(p)[1] == (root, 1)

    @pytest.mark.parametrize("lead", [-1, Fraction(-5, 7), Fraction(3, 4)])
    def test_negative_or_fractional_leading_coefficients(self, lead, no_sympy):
        p = UniPoly.from_roots([Fraction(-3, 2), 4, 4], leading=lead) * IRREDUCIBLE_CUBIC
        assert irreducible_factors(p) == sympy_factors(p)

    def test_roots_congruent_modulo_the_peels_prime(self, no_sympy):
        # 1 and 102 meet modulo 101: the first peel finds neither, the certificate
        # leaves degree 1 possible, and the second peel, at 103, finds both
        p = UniPoly.from_roots([1, 102, 102]) * UniPoly((1, 0, 1))
        assert irreducible_factors(p) == sympy_factors(p)

    @pytest.mark.parametrize("c", [1, -1, 5, Fraction(-3, 4), Fraction(2, 7), Fraction(-9, 5)])
    def test_constants_have_no_factors(self, c):
        p = UniPoly((c,))
        assert irreducible_factors(p) == sympy_factors(p) == []


class TestGaloisOrbits:
    def test_rational_roots_ascend_then_orbits_follow_in_factor_order(self):
        quartic = UniPoly((2, 0, 0, 0, 1))  # x^4 + 2
        cubic_a = UniPoly((-2, 0, 0, 1))  # x^3 - 2
        cubic_b = UniPoly((-3, 0, 0, 1))  # x^3 - 3
        quadratic = UniPoly((-2, 0, 1))  # x^2 - 2
        roots = [Fraction(5, 2), 0, -3, Fraction(-1, 3), 7]
        p = quartic * cubic_b * cubic_a * quadratic * UniPoly.from_roots(roots, leading=-6)
        assert galois_orbits(p) == [
            (Fraction(-3), 1), (Fraction(-1, 3), 1), (Fraction(0), 1),
            (Fraction(5, 2), 1), (Fraction(7), 1),
            (quadratic, 1), (cubic_b, 1), (cubic_a, 1), (quartic, 1)]

    def test_multiplicities_are_kept(self):
        quadratic = UniPoly((-3, 0, 1))
        p = quadratic ** 3 * UniPoly.from_roots([2, 2, Fraction(-1, 2)]) * 4
        assert galois_orbits(p) == [(Fraction(-1, 2), 1), (Fraction(2), 2), (quadratic, 3)]

    @pytest.mark.parametrize("c", [1, Fraction(-3, 4)])
    def test_constants_have_no_orbits(self, c):
        assert galois_orbits(UniPoly((c,))) == []

    def test_zero_raises(self):
        with pytest.raises(ValueError, match="zero polynomial"):
            galois_orbits(UniPoly.zero())


def test_sympy_loads_only_for_a_cofactor_the_certificate_cannot_prove():
    code = ("import sys; from fibrelab import cli, factorization; from fibrelab.curves import "
            "construct_nodal; from fibrelab.polynomial import UniPoly, repeated_part; "
            "factorization.irreducible_factors(UniPoly((-2, 0, 1))); "
            "factorization.galois_orbits(repeated_part(construct_nodal(12, 12, 0).f)); "
            "assert 'sympy' not in sys.modules; "
            "factorization.irreducible_factors(UniPoly((1, 0, -10, 0, 1))); "
            "assert 'sympy' in sys.modules")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
