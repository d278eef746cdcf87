import random
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy

from fibrelab import factorization
from fibrelab.curves import construct_nodal, construct_split
from fibrelab.factorization import (
    _CERTIFY_FROM_DEGREE,
    _certified_irreducible,
    galois_orbits,
    irreducible_factors,
)
from fibrelab.pencils import Pencil, pencil_discriminant, seeded_pencil
from fibrelab.polynomial import UniPoly


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


def dense(rng, degree, height=9, max_den=1, leading=None) -> UniPoly:
    coeffs = [Fraction(rng.randint(-height, height), rng.randint(1, max_den))
              for _ in range(degree)]
    return UniPoly(tuple(coeffs) + (Fraction(leading or rng.choice([-3, -1, 1, 2, 5])),))


class TestCertificate:
    @pytest.mark.parametrize("seed", range(6))
    def test_dense_polynomials_are_certified_and_match_sympy(self, seed):
        # seed 1 and 4 carry a leading coefficient divisible by 3, 5 and 7,
        # whose reductions the certificate has to skip
        rng = random.Random(f"certificate:{seed}")
        p = dense(rng, _CERTIFY_FROM_DEGREE + seed, max_den=7,
                  leading=105 if seed % 3 == 1 else None)
        expected = sympy_factors(p)
        assert expected == [(p.monic(), 1)]
        assert _certified_irreducible(p)
        assert irreducible_factors(p) == expected

    @pytest.mark.parametrize("degrees", [(12, 13), (1, 24), (5, 20), (8, 8, 9)])
    def test_products_are_never_certified(self, degrees):
        rng = random.Random(f"product:{degrees}")
        p = UniPoly.one()
        for d in degrees:
            p = p * dense(rng, d)
        assert not _certified_irreducible(p)
        assert irreducible_factors(p) == sympy_factors(p)

    def test_equal_degree_modular_factors_are_all_counted(self):
        # modulo every prime p not dividing 26, Phi_13 and Phi_26 split into
        # factors of one degree each, so only a sum over several factors of
        # one degree reaches the true factor degree 12
        x = sympy.Symbol("x")
        product = sympy.cyclotomic_poly(13, x) * sympy.cyclotomic_poly(26, x)
        p = UniPoly(tuple(Fraction(int(c)) for c in reversed(sympy.Poly(product, x).all_coeffs())))
        assert p.degree == 24
        assert not _certified_irreducible(p)
        assert irreducible_factors(p) == sympy_factors(p)

    def test_primes_dividing_the_leading_coefficient_are_skipped(self):
        # modulo 3 the product reduces to the constant 2
        g = UniPoly((1,) + (0,) * 11 + (3,))  # 3x^12 + 1
        p = g * (g + UniPoly((1,)))
        assert not _certified_irreducible(p)
        assert irreducible_factors(p) == sympy_factors(p)

    def test_a_square_is_never_certified(self):
        q = dense(random.Random("square"), 13, max_den=3)
        p = q * q
        assert not _certified_irreducible(p)
        assert irreducible_factors(p) == sympy_factors(p) == [(q.monic(), 2)]

    def test_pencil_discriminant_is_certified(self):
        disc = pencil_discriminant(seeded_pencil(6, 0))
        assert disc.degree == 26
        assert _certified_irreducible(disc)
        assert irreducible_factors(disc) == sympy_factors(disc) == [(disc.monic(), 1)]

    @pytest.mark.parametrize("t", [1, 2, "split"])
    def test_planted_discriminants_fall_back_to_sympy(self, t):
        # the member at lam = 0 is singular, so lam divides Disc
        member = construct_split(6, 5) if t == "split" else construct_nodal(6, t, 5)
        disc = pencil_discriminant(Pencil(6, member.f, construct_nodal(6, 0, 6).f))
        assert disc.degree >= _CERTIFY_FROM_DEGREE
        assert not _certified_irreducible(disc)
        factors = irreducible_factors(disc)
        assert factors == sympy_factors(disc)
        assert UniPoly((0, 1)) in [f for f, _ in factors]

    def test_irreducible_but_split_modulo_every_prime_is_not_certified(self):
        # x^4 - 10x^2 + 1, the minimal polynomial of sqrt 2 + sqrt 3
        p = UniPoly((Fraction(1), Fraction(0), Fraction(-10), Fraction(0), Fraction(1)))
        assert not _certified_irreducible(p)
        assert irreducible_factors(p) == sympy_factors(p) == [(p, 1)]

    def test_below_the_threshold_only_sympy_runs(self, monkeypatch):
        def fail(p):
            raise AssertionError("certificate tried below degree 24")

        monkeypatch.setattr(factorization, "_certified_irreducible", fail)
        p = dense(random.Random("below"), _CERTIFY_FROM_DEGREE - 1)
        assert irreducible_factors(p) == sympy_factors(p)


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
        if p.degree + 2 * power < _CERTIFY_FROM_DEGREE:
            p = p * UniPoly((c, Fraction(b), Fraction(a))) ** power
    return p


def planted_discriminant(g, t, seed) -> UniPoly:
    member = construct_split(g, seed) if t == "split" else construct_nodal(g, t, seed)
    return pencil_discriminant(Pencil(g, member.f, construct_nodal(g, 0, seed + 100).f))


class TestSympyRoute:
    """Below degree 24 the factors come from sympy's dense Z[x] factorizer; the
    parent's Poly-over-QQ route (``sympy_factors``) is the oracle."""

    def test_products_of_linear_factors(self):
        rng = random.Random("linear")
        for _ in range(80):
            p = linear_product(rng)
            assert irreducible_factors(p) == sympy_factors(p)

    def test_products_of_irreducible_quadratics(self):
        rng = random.Random("quadratic")
        for _ in range(60):
            p = quadratic_product(rng)
            assert p.degree < _CERTIFY_FROM_DEGREE
            assert irreducible_factors(p) == sympy_factors(p)

    @pytest.mark.parametrize("g,ts", [(2, (1, 2, "split")), (3, (1, 2, 3, "split"))],
                             ids=["g2", "g3"])
    def test_planted_pencil_discriminants(self, g, ts):
        for t in ts:
            for seed in range(10):
                disc = planted_discriminant(g, t, seed)
                assert 0 < disc.degree < _CERTIFY_FROM_DEGREE
                factors = irreducible_factors(disc)
                assert factors == sympy_factors(disc)
                assert UniPoly((0, 1)) in [f for f, _ in factors]

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


def test_sympy_loads_on_the_first_factorization():
    code = ("import sys; from fibrelab import cli, factorization; from fibrelab.polynomial "
            "import UniPoly; assert 'sympy' not in sys.modules; "
            "factorization.irreducible_factors(UniPoly((-2, 0, 1))); "
            "assert 'sympy' in sys.modules")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
