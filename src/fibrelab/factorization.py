"""Irreducible factorization over Q: rational roots peeled p-adically, the
cofactor certified modulo small primes, sympy only for what stays unproved.

Everything else in the package is factorization-free; the two places that
genuinely need irreducible factors (minimal polynomials of conjugate
singular points, and the moduli for per-fibre node counting at algebraic
pencil parameters) read them through :func:`galois_orbits`, which names and
orders the roots of a polynomial one Galois orbit at a time.

:func:`irreducible_factors` works on the primitive integer multiple ``D`` of
its input, which has the same monic factors, in three stages:

1. **Peel** (:func:`_peel_rational_roots`, after Loos, SIAM J. Comput. 12,
   1983).  Zero roots go first.  Each root ``r`` of ``D`` modulo the first
   good prime ``p >= 101`` is Newton-lifted as a simple root of the first
   derivative ``D^(k)`` in which it is simple, far enough that ``lc(D)`` times
   a rational root is read off as a symmetric residue; the candidate ``a/b``
   is kept only if ``b x - a`` divides ``D`` exactly, as often as it does.
2. **Certify** (:func:`_certified_irreducible`, Musser, JACM 25, 1978).  A
   pure-Python kernel over ``F_p`` (:func:`_distinct_degrees`) splits the
   cofactor by distinct degrees modulo good primes from 101 up; when no
   proper factor degree survives, the cofactor is irreducible.  The kernel
   packs a polynomial into one int, a 64-bit slot per coefficient, so a
   product is one big-int multiplication (Kronecker substitution, von zur
   Gathen and Gerhard, *Modern Computer Algebra* 8.4); it refuses degree
   ``n`` and prime ``p`` with ``n p^2 >= 2^64``, where a slot could
   overflow.  Per prime, one gcd with the product of the ``x^(p^d) - x``,
   ``d <= n/2``, splits off the one factor of degree above ``n/2`` (von zur
   Gathen and Shoup, Comput. Complexity 2, 1992).  A prime dividing the
   discriminant is skipped; the certificate gives up after
   ``_CERTIFY_PRIMES`` primes tried or four times as many skipped.
3. **Fall back.**  When degree 1 survives the certificate, the cofactor is
   peeled once more at the next good prime; when that finds a root, what
   is left is certified afresh.  Only a cofactor that the certificate leaves unproved
   goes to sympy's dense ``Z[x]`` factorizer, which is imported there and
   nowhere else in the package.

The peel is sound because of the exact division; it is complete together
with the certificate, because a rational root it misses leaves degree 1 a
possible factor degree, so the certificate fails and sympy factors the
cofactor.  Factorization over Q is unique, so the route changes no answer.
Factors come back monic and in a deterministic order.
"""

from __future__ import annotations

import struct
from math import gcd, isqrt

from .polynomial import UniPoly, _int_derivative, _integer_primitive, _monic_fraction

_CERTIFY_PRIMES = 16  # good primes tried before the certificate gives up


def _good_primes(lead: int):
    """The primes from 101 up that do not divide ``lead``.

    Smaller primes are skipped: one that divides a difference of two roots of
    a pencil member makes them collide, and the discriminants of the pencils
    in benchmarks/workloads.py were not squarefree modulo any prime below
    about 90.
    """
    p = 101
    while True:
        if lead % p and all(p % d for d in range(3, isqrt(p) + 1, 2)):
            yield p
        p += 2


# ---------------------------------------------------------------------------
# stage 1: rational roots
# ---------------------------------------------------------------------------


def _horner_mod(coeffs, x: int, m: int) -> int:
    value = 0
    for c in reversed(coeffs):
        value = (value * x + c) % m
    return value


def _divide_linear(f, a: int, b: int):
    """``f / (b x - a)`` for an integer list ``f``, or None unless the division is exact."""
    quot = [0] * (len(f) - 1)
    carry = 0  # the coefficient of the quotient one degree up
    for i in range(len(f) - 1, 0, -1):
        q, r = divmod(f[i] + a * carry, b)
        if r:
            return None
        quot[i - 1] = carry = q
    return quot if f[0] == -a * carry else None


def _peel_rational_roots(f, p: int):
    """Split a primitive integer list ``f`` into its rational linear factors and the rest,
    lifting its roots modulo a prime ``p`` that does not divide ``lc(f)``.

    Returns ``(linear, cofactor)``: ``linear`` holds ``([-a, b], multiplicity)``
    for each root ``a/b`` found, ``cofactor`` is ``f`` divided by all of them.
    A root is missed when another root is congruent to it modulo the prime,
    or when the first derivative that does not vanish at it takes a value
    there divisible by the prime; it then stays in the cofactor, which the
    certificate can never prove irreducible.
    """
    linear = []
    zeros = next(i for i, c in enumerate(f) if c)
    if zeros:
        linear.append(([0, 1], zeros))
        f = f[zeros:]
    if len(f) < 2:
        return linear, f
    fp = [c % p for c in f]
    for r in [r for r in range(p) if not _horner_mod(fp, r, p)]:
        if len(f) < 2 or _horner_mod(f, r, p):
            continue  # an earlier division took the root
        # a root of multiplicity k + 1 is a simple root of the k-th derivative
        g, dg = f, _int_derivative(f)
        while dg and not _horner_mod(dg, r, p):
            g, dg = dg, _int_derivative(dg)
        if not dg:
            continue  # p <= deg f, and every derivative vanishes at r mod p
        # Newton lift until lc * root, at most lc * |f(0)| for a rational root, is determined
        lead, modulus = f[-1], p
        while modulus <= 2 * lead * abs(f[0]):
            modulus *= modulus
            step = _horner_mod(g, r, modulus) * pow(_horner_mod(dg, r, modulus), -1, modulus)
            r = (r - step) % modulus
        z = lead * r % modulus
        if z > modulus // 2:
            z -= modulus
        common = gcd(z, lead)
        a, b = z // common, lead // common
        mult = 0
        while len(f) > 1 and (quot := _divide_linear(f, a, b)) is not None:
            f, mult = quot, mult + 1
        if mult:
            linear.append(([-a, b], mult))
    return linear, f


# ---------------------------------------------------------------------------
# stage 2: the degree-set certificate, on ints mod p, listed or packed
# ---------------------------------------------------------------------------


def _fp_strip(a):
    while a and not a[-1]:
        a.pop()
    return a


def _fp_divmod(a, b, p: int):
    """Quotient and remainder of ``a`` by a monic ``b`` over ``F_p``."""
    r = list(a)
    n = len(b) - 1
    quot = [0] * max(len(a) - n, 0)
    for shift in range(len(a) - 1 - n, -1, -1):
        c = r.pop() % p
        quot[shift] = c
        if c:
            r[shift:] = [x - c * y for x, y in zip(r[shift:], b)]
    return quot, _fp_strip([x % p for x in r])


def _fp_monic(a, p: int):
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _fp_gcd(a, b, p: int):
    """Monic gcd over ``F_p`` of ``a`` and ``b``, not both zero, by Euclid."""
    a, b = _fp_strip([c % p for c in a]), _fp_strip([c % p for c in b])
    while b:
        b = _fp_monic(b, p)
        a, b = b, _fp_divmod(a, b, p)[1]
    return _fp_monic(a, p)


def _pack(c) -> int:
    """The residues ``c`` as one int, one 64-bit slot each, constant term lowest."""
    return int.from_bytes(struct.pack(f"<{len(c)}Q", *c), "little")


def _unpack(v: int, slots: int, p: int):
    """The lowest ``slots`` 64-bit slots of ``v``, each reduced mod ``p``."""
    return [c % p for c in struct.unpack(f"<{slots}Q", v.to_bytes(8 * slots, "little"))]


def _distinct_degrees(f, p: int):
    """``[(d, count), ...]``: the number of irreducible factors of each degree ``d``
    of a monic squarefree ``f`` over ``F_p``, ascending in ``d``.

    Polynomials of degree below ``n = deg f`` are packed (:func:`_pack`), so a
    product is one big-int multiplication (Kronecker substitution), reduced
    mod ``f`` with the packed ``x^(n+i) mod f``.  ``h_d = x^(p^d) mod f`` is
    ``sum h_j x^(p j)`` over ``F_p``, a sum of packed Frobenius rows.  The
    factors of degree at most ``n/2`` multiply to ``G = gcd(f, P)`` with
    ``P = prod (h_d - x)`` over ``d <= n/2``; ``f/G``, when not constant, is
    the one factor of larger degree, and the factors of degree ``d`` multiply
    to ``gcd(g, h_d - x)`` once those of lower degree are divided out of ``g``,
    starting from ``g = G``.
    """
    n = len(f) - 1
    if n * p * p >= 1 << 64:  # a slot sums at most n products of residues
        raise OverflowError(f"64-bit slots cannot hold degree {n} products mod {p}")
    if n < 2:
        return [(n, 1)]
    top = [-c % p for c in f[:-1]]  # x^n mod f
    tops = [top]
    for _ in range(n - 2):
        t = tops[-1]
        tops.append([(a + t[-1] * b) % p for a, b in zip([0] + t[:-1], top)])
    tops = [_pack(t) for t in tops]

    def mulmod(a, b):
        wide = _unpack(a * b, 2 * n - 1, p)
        acc = _pack(wide[:n])
        for c, t in zip(wide[n:], tops):
            if c:
                acc += c * t
        return _pack(_unpack(acc, n, p))

    xp = 1
    for bit in bin(p)[2:]:  # x^p by squaring; x packs to 1 << 64
        xp = mulmod(xp, xp)
        if bit == "1":
            xp = mulmod(xp, 1 << 64)
    rows = [1, xp]
    for _ in range(n - 2):
        rows.append(mulmod(rows[-1], xp))

    hs, h, prod = [], [0, 1], 1
    for _ in range(n // 2):
        acc = 0
        for c, row in zip(h, rows):
            if c:
                acc += c * row
        h = _unpack(acc, n, p)
        hs.append([h[0], (h[1] - 1) % p] + h[2:])  # h_d - x
        prod = mulmod(prod, _pack(hs[-1]))
    g = _fp_gcd(f, _unpack(prod, n, p), p)  # prod = 0 gives g = f
    out, large = [], n + 1 - len(g)
    for d, hx in enumerate(hs, 1):
        if len(g) - 1 < 2 * d:
            break
        factor = _fp_gcd(g, hx, p)
        if len(factor) > 1:
            out.append((d, (len(factor) - 1) // d))
            g = _fp_divmod(g, factor, p)[0]
    out += [(e, 1) for e in (len(g) - 1, large) if e]
    return out


def _certified_irreducible(f):
    """The degrees ``0 < d < deg f`` that reductions modulo small primes leave
    possible for a factor of the primitive integer list ``f``; empty proves
    ``f`` irreducible.

    Modulo a prime dividing neither the leading coefficient nor the
    discriminant of ``f``, a factor of degree ``d`` over Q reduces to a
    product of distinct irreducible factors, so ``d`` is a sum of some of
    their degrees, which :func:`_distinct_degrees` gives (Musser, JACM 25,
    1978).  A prime dividing the discriminant is skipped; the certificate
    gives up after ``_CERTIFY_PRIMES`` primes tried or four times as many
    skipped.
    """
    possible = set(range(1, len(f) - 1))
    tried = skipped = 0
    for p in _good_primes(f[-1]):
        if not possible or tried == _CERTIFY_PRIMES or skipped == 4 * _CERTIFY_PRIMES:
            break
        fp = _fp_monic(f, p)
        if len(_fp_gcd(fp, _int_derivative(fp), p)) > 1:
            skipped += 1  # p divides the discriminant
            continue
        tried += 1
        sums = {0}
        for d, count in _distinct_degrees(fp, p):
            sums = {s + d * i for s in sums for i in range(count + 1)}
        possible &= sums
    return possible


# ---------------------------------------------------------------------------
# stage 3 and the public entry points
# ---------------------------------------------------------------------------


def _sympy_factors(f):
    """Irreducible factors of the primitive integer list ``f`` by sympy, as integer lists."""
    # deferred: sympy dominates interpreter start-up, and only a cofactor the
    # certificate cannot prove irreducible needs it
    from sympy.polys.domains import ZZ
    from sympy.polys.factortools import dup_factor_list

    _, factors = dup_factor_list(f[::-1], ZZ)
    # int(): with gmpy2 installed, sympy's ZZ elements are mpz, not int
    return [([int(c) for c in reversed(g)], mult) for g, mult in factors]


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
    f = _integer_primitive(p)
    primes = _good_primes(f[-1])
    factors, rest = _peel_rational_roots(f, next(primes))
    possible = _certified_irreducible(rest)
    if 1 in possible:
        # two roots congruent modulo the first prime hide each other; the next may part them
        linear, rest = _peel_rational_roots(rest, next(primes))
        if linear:
            factors += linear
            possible = _certified_irreducible(rest)
    if possible:
        factors += _sympy_factors(rest)
    elif len(rest) > 1:
        factors.append((rest, 1))
    out = [(_monic_fraction(f), mult) for f, mult in factors]
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
