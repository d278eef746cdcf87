import random
from fractions import Fraction

import pytest
import sympy

from fibrelab import factorization
from fibrelab.curves import construct_nodal, construct_split
from fibrelab.factorization import _CERTIFY_FROM_DEGREE, _certified_irreducible, irreducible_factors
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
        g = UniPoly.monomial(12, 3) + UniPoly.constant(1)
        p = g * (g + UniPoly.constant(1))
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
        assert UniPoly.x() in [f for f, _ in factors]

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
