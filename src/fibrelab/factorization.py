"""Irreducible factorization over Q, delegated to sympy.

Everything else in the package is factorization-free; the two places that
genuinely need irreducible factors (minimal polynomials of conjugate
singular points, and the moduli for per-fibre node counting at algebraic
pencil parameters) read them through :func:`galois_orbits`, which names and
orders the roots of a polynomial one Galois orbit at a time.  It hands sympy's
dense ``Z[x]`` layer the primitive integer multiple of the input, which has
the same monic factors.  Factors come back monic and in a deterministic order.

A generic pencil's discriminant is irreducible of degree 4g+2, where
sympy's Zassenhaus spends its time Hensel-lifting modular factors that
never recombine; from degree 24 on, a degree-set certificate
(:func:`_certified_irreducible`) is tried before sympy.
"""

from __future__ import annotations

from .polynomial import UniPoly, _integer_primitive, _monic_fraction

# Census-style split inputs set the gate, not speed on irreducible input (the certificate
# wins there from degree 18 on): the u1 = gcd(f, f') of a constructed curve is a product of
# rational linear factors, so the certificate fails on it, and a failed try costs more than
# sympy's whole factorization.  Move the gate only after re-measuring both kinds of input.
_CERTIFY_FROM_DEGREE = 24
_CERTIFY_PRIMES = 12  # good primes below 200 tried before the certificate gives up


def _certified_irreducible(p: UniPoly) -> bool:
    """True when reductions modulo small primes prove ``p`` irreducible over Q.

    Modulo a prime dividing neither the leading coefficient nor the
    discriminant of ``p``'s primitive integer multiple, a factor of degree
    ``d`` over Q reduces to a product of distinct irreducible factors, so
    ``d`` is a sum of some of their degrees, which the distinct-degree
    factorization gives.  When no ``0 < d < deg p`` is such a sum for every
    prime tried, ``p`` is irreducible (Musser, JACM 25, 1978).  False means
    only "not certified".
    """
    from sympy import primerange
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_ddf_zassenhaus, gf_from_int_poly, gf_monic, gf_sqf_p

    f = _integer_primitive(p)[::-1]
    possible, tried = set(range(1, p.degree)), 0
    for prime in primerange(3, 200):
        fp = gf_from_int_poly(f, prime)
        if len(fp) < len(f) or not gf_sqf_p(fp, prime, ZZ):
            continue
        sums = {0}
        for factor, d in gf_ddf_zassenhaus(gf_monic(fp, prime, ZZ)[1], prime, ZZ):
            sums = {s + d * i for s in sums for i in range((len(factor) - 1) // d + 1)}
        possible &= sums
        tried += 1
        if not possible or tried == _CERTIFY_PRIMES:
            break
    return not possible


def irreducible_factors(p: UniPoly):
    """Monic irreducible factors of ``p`` with multiplicities.

    Returns ``[(factor, multiplicity), ...]`` sorted by (degree,
    coefficient tuple); the product of ``factor**multiplicity`` is ``p``
    up to its leading coefficient.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has no factorization")
    if p.degree == 0:
        return []
    if p.degree >= _CERTIFY_FROM_DEGREE and _certified_irreducible(p):
        return [(p.monic(), 1)]
    # deferred: sympy dominates interpreter start-up, and most entry points
    # (classification over Q, linear systems, geography) never factor
    from sympy.polys.domains import ZZ
    from sympy.polys.factortools import dup_factor_list

    _, factors = dup_factor_list(_integer_primitive(p)[::-1], ZZ)
    # int(): with gmpy2 installed, sympy's ZZ elements are mpz, not int
    out = [(_monic_fraction([int(c) for c in reversed(f)]), mult) for f, mult in factors]
    out.sort(key=lambda fm: (fm[0].degree, fm[0].coefficients))
    return out


def galois_orbits(p: UniPoly):
    """Roots of ``p`` as ``[(location, multiplicity), ...]``, one per Galois orbit.

    Rational roots come first, ascending, each as its ``Fraction``; then each
    conjugate orbit as its monic minimal polynomial, in
    :func:`irreducible_factors` order (by degree, then coefficient tuple).
    """
    factors = irreducible_factors(p)
    rational = sorted((-m.coefficients[0], mult) for m, mult in factors if m.degree == 1)
    return rational + [(m, mult) for m, mult in factors if m.degree > 1]
