import random
from fractions import Fraction

import pytest
import sympy

from fibrelab.polynomial import UniPoly

X = sympy.Symbol("x")


def random_unipoly(rng: random.Random, max_degree: int, coeff_bound: int = 9) -> UniPoly:
    degree = rng.randint(0, max_degree)
    coeffs = [Fraction(rng.randint(-coeff_bound, coeff_bound)) for _ in range(degree)]
    coeffs.append(Fraction(rng.choice([c for c in range(-coeff_bound, coeff_bound + 1) if c])))
    return UniPoly(tuple(coeffs))


def to_sympy(p: UniPoly):
    return sum(sympy.Rational(c.numerator, c.denominator) * X**i
               for i, c in enumerate(p.coefficients))


def compose(p: UniPoly, inner: UniPoly) -> UniPoly:
    """Substitution ``p(inner(x))`` by Horner's rule."""
    acc = UniPoly.zero()
    for c in reversed(p.coefficients):
        acc = acc * inner + UniPoly((c,))
    return acc


def gaussian_det(rows) -> Fraction:
    """Scalar determinant by Gaussian elimination over Fraction.

    Independent of the package's fraction-free kernel: a zero pivot is
    replaced by the next row with a nonzero entry in its column, and each
    such swap flips the sign.
    """
    mat = [[Fraction(e) for e in row] for row in rows]
    n = len(mat)
    det = Fraction(1)
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if mat[i][k]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            mat[k], mat[pivot_row] = mat[pivot_row], mat[k]
            det = -det
        pivot = mat[k][k]
        det *= pivot
        for i in range(k + 1, n):
            factor = mat[i][k] / pivot
            for j in range(k, n):
                mat[i][j] -= factor * mat[k][j]
    return det


def lagrange_poly_matrix_det(rows) -> UniPoly:
    """Determinant of a matrix with entries in ``Q[lam]`` (UniPolys or scalars).

    The entries are evaluated at the rational nodes ``0..N``, ``N`` the sum
    over rows of the largest entry degree, each scalar determinant is taken
    by :func:`gaussian_det`, and the values are interpolated by Lagrange's
    formula over Fraction.
    """
    norm = [[e if isinstance(e, UniPoly) else UniPoly((e,)) for e in row] for row in rows]
    bound = sum(max((e.degree for e in row), default=0) for row in norm)
    nodes = [Fraction(i) for i in range(bound + 1)]
    result = UniPoly.zero()
    for xi in nodes:
        num = UniPoly((gaussian_det([[e(xi) for e in row] for row in norm]),))
        den = Fraction(1)
        for xj in nodes:
            if xj != xi:
                num = num * UniPoly((-xj, Fraction(1)))
                den *= xi - xj
        result = result + num / den
    return result


def sylvester_rows(p: UniPoly, q: UniPoly, k: int = 0):
    """Rows of the ``k``-th Sylvester matrix of ``p`` and ``q``, q-block on top.

    With ``m = deg p`` and ``n = deg q``: the coefficient vectors of
    ``x^(m-k-1) q, ..., q`` and then ``x^(n-k-1) p, ..., p`` over the monomials
    ``x^(m+n-k-1), ..., x, 1``, padded with ``0``.
    """
    m, n = p.degree, q.degree
    size = m + n - k
    rows = []
    for poly, count in ((q, m - k), (p, n - k)):
        desc = list(reversed(poly.coefficients))
        for shift in range(count):
            rows.append([0] * shift + desc + [0] * (size - shift - len(desc)))
    return rows


def sylvester_minor(p: UniPoly, q: UniPoly, k: int, j: int) -> UniPoly:
    """Oracle for ``subresultant(p, q, k)[j]``: the Sylvester minor it replaced.

    The determinant of the first ``m + n - 2k - 1`` columns of
    :func:`sylvester_rows` and the column of ``x^j``, by :func:`gaussian_det`
    for rational entries and by :func:`lagrange_poly_matrix_det` for entries
    in ``Q[lam]``; a UniPoly in ``lam`` either way.
    """
    rows = sylvester_rows(p, q, k)
    column = len(rows[0]) - 1 - j
    minor = [row[:len(rows) - 1] + [row[column]] for row in rows]
    if any(isinstance(c, UniPoly) for c in p.coefficients + q.coefficients):
        return lagrange_poly_matrix_det(minor)
    return UniPoly((gaussian_det(minor),))


def fraction_gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """Monic greatest common divisor by Euclid over Fraction."""
    while not q.is_zero:
        p, q = q, p % q
    return p.monic()


def fraction_squarefree_decomposition(p: UniPoly):
    """Yun's squarefree decomposition by Euclid over Fraction.

    Independent of the package, which has no squarefree decomposition:
    monic gcds by :func:`fraction_gcd` and quotients by ``divmod``, all
    over Q.  Returns ``[(factor, multiplicity), ...]`` with monic squarefree
    pairwise coprime factors in ascending multiplicity; a nonzero constant
    decomposes into ``[]``.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has no decomposition")
    p = p.monic()
    if p.degree == 0:
        return []
    d = fraction_gcd(p, p.derivative())
    if d.degree == 0:
        return [(p, 1)]
    b = divmod(p, d)[0]
    z = divmod(p.derivative(), d)[0] - b.derivative()
    out = []
    i = 1
    while b.degree > 0:
        a = fraction_gcd(b, z)
        if a.degree > 0:
            out.append((a, i))
        b = divmod(b, a)[0]
        z = divmod(z, a)[0] - b.derivative()
        i += 1
    return out


def yun_signature(f: UniPoly):
    """Oracle for the gcd chain of ``classify``: ``(deg u1, deg u2, deg u3)``.

    Summed from :func:`fraction_squarefree_decomposition`: a factor of
    multiplicity ``k`` adds ``max(k - i, 0)`` times its degree to ``deg u_i``.
    """
    decomposition = fraction_squarefree_decomposition(f)
    return tuple(sum(max(mult - i, 0) * factor.degree for factor, mult in decomposition)
                 for i in (1, 2, 3))


def yun_singular_points(f: UniPoly):
    """Oracle for ``singular_points``: ``(location, local_type)`` in print order.

    The route it replaced: each factor of multiplicity ``k >= 2`` in
    :func:`fraction_squarefree_decomposition` is split by
    ``irreducible_factors`` into rational roots and conjugate orbits, all
    ``node`` when ``k == 2`` and ``worse`` otherwise.
    """
    from fibrelab.factorization import irreducible_factors

    rational, orbits = [], []
    for factor, mult in fraction_squarefree_decomposition(f):
        if mult < 2:
            continue
        local = "node" if mult == 2 else "worse"
        for irr, _ in irreducible_factors(factor):
            if irr.degree == 1:
                rational.append((-irr.coefficients[0], local))
            else:
                orbits.append((irr, local))
    rational.sort(key=lambda point: point[0])
    orbits.sort(key=lambda point: (point[0].degree, point[0].coefficients))
    return rational + orbits


def number_field_signature(f: UniPoly, m: UniPoly):
    """Oracle for ``orbit_signature``: ``(d1, d2, d3)`` by sympy's gcd over Q(alpha).

    ``f`` has coefficients in Q[lam] (UniPolys or Fractions) and ``alpha`` is
    a root of the irreducible ``m``; each coefficient is evaluated at alpha
    by Horner's rule in sympy's algebraic field, which reduces mod ``m``.
    """
    lam = sympy.Symbol("lam")
    field = sympy.QQ.algebraic_field(sympy.CRootOf(sympy.Poly(to_sympy(m).subs(X, lam), lam), 0))
    alpha = field([1, 0])

    def at_alpha(c):
        acc = field.zero
        for a in reversed(c.coefficients if isinstance(c, UniPoly) else (c,)):
            acc = acc * alpha + field.convert(sympy.Rational(a.numerator, a.denominator))
        return acc

    u = sympy.Poly([at_alpha(c) for c in reversed(f.coefficients)], X, domain=field)
    signature = []
    for _ in range(3):
        u = u.gcd(u.diff(X))
        signature.append(u.degree())
    return tuple(signature)


@pytest.fixture
def rng():
    return random.Random(0xF1B)
