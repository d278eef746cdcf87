"""Exact univariate polynomial arithmetic over the rationals.

Coefficients are ``fractions.Fraction`` values, so every result is exact and
every emitted rational is automatically in lowest terms with a positive
denominator.  ``UniPoly`` is deliberately coefficient-agnostic: any value
type supporting ring arithmetic (``+``, ``-``, ``*``, ``bool``,
``int * value``) can serve as a coefficient of the ring operations
(division and gcds also need ``/``), which is how a pencil member
becomes one polynomial in ``x`` with coefficients in ``Q[lam]``: its
Sylvester matrices and their minors (:func:`sylvester_rows`,
:func:`subresultant_minor`) are then polynomials in ``lam``.

Yun's squarefree decomposition (:func:`squarefree_decomposition`) and
:func:`is_squarefree` run in ``Z[x]``: denominators are cleared once, each gcd
is a primitive polynomial remainder sequence, and the Yun quotients are
exact integer divisions, which stay in ``Z[x]`` by Gauss's lemma because
every divisor is primitive.  The result is over Q: Fractions are built only
for the monic output factors.  ``UniPoly.gcd`` stays the coefficient-agnostic
Euclid over the coefficient field.

Those determinants, and the constant Sylvester determinant of
:func:`resultant`, go through the one determinant routine
(:func:`poly_matrix_det`), which works in integers: each row is scaled once
to clear its denominators, the entries are evaluated at the integer nodes
``0..N`` and each scalar determinant is taken fraction-free (Bareiss), and
the values are interpolated by Newton forward differences over one common
denominator, so Fractions are built only for the output.

Conventions (held fixed throughout the package):

* ``resultant(p, q) = lc(q)^deg(p) * prod p(beta)`` over the roots ``beta``
  of ``q``; equivalently the determinant of the Sylvester block matrix with
  the ``q``-coefficient block on top.  With this orientation
  ``resultant(x - 1, x - 2) = 1``.
* ``discriminant(p) = (-1)^(n(n-1)/2) * resultant(p, p') / lc(p)`` with
  ``n = deg p``.  For a depressed cubic ``x^3 + a x + b`` this evaluates to
  ``-(4 a^3 + 27 b^2)``; for ``a x^2 + b x + c`` to ``b^2 - 4 a c``.
  Note ``deg(p) * deg(p')`` is always even, so the discriminant does not
  depend on the resultant orientation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd, lcm
from typing import Iterable


class LiteralError(ValueError):
    """Malformed polynomial literal (wrong JSON shape or token)."""


def _coerce(value):
    """Coerce ints/strings to Fraction; pass exotic coefficient types through."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError("floating-point coefficients are not exact; use Fraction")
    return value


@dataclass(frozen=True)
class UniPoly:
    """Dense univariate polynomial, coefficients in ascending degree.

    The zero polynomial is the empty tuple; otherwise the leading (last)
    coefficient is nonzero.  Instances are immutable and hashable.
    """

    coefficients: tuple = ()

    def __post_init__(self):
        coeffs = [_coerce(c) for c in self.coefficients]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls(())

    @classmethod
    def one(cls) -> "UniPoly":
        return cls((Fraction(1),))

    @classmethod
    def x(cls) -> "UniPoly":
        return cls((Fraction(0), Fraction(1)))

    @classmethod
    def constant(cls, c) -> "UniPoly":
        return cls((_coerce(c),))

    @classmethod
    def monomial(cls, power: int, coeff=1) -> "UniPoly":
        if power < 0:
            raise ValueError("negative power")
        return cls((Fraction(0),) * power + (_coerce(coeff),))

    @classmethod
    def from_roots(cls, roots: Iterable, leading=1) -> "UniPoly":
        """Monic-times-``leading`` product of ``(x - r)`` over rational ``roots``.

        With ``leading = a/b`` and roots ``p_i/q_i`` this is
        ``a * prod (q_i x - p_i)``, multiplied out in integers, over the one
        denominator ``b * prod q_i``.
        """
        leading = _coerce(leading)
        acc, den = [leading.numerator], leading.denominator
        for r in roots:
            r = _coerce(r)
            p, q = r.numerator, r.denominator
            acc = ([-p * acc[0]] + [q * a - p * b for a, b in zip(acc, acc[1:])]
                   + [q * acc[-1]])
            den *= q
        return cls(tuple(Fraction(c, den) for c in acc))

    # -- basic queries -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coefficients) - 1

    @property
    def leading_coefficient(self):
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coefficients[-1]

    def __bool__(self) -> bool:
        return not self.is_zero

    def __call__(self, x):
        """Evaluate by Horner's rule.  ``x`` may be any compatible field value."""
        acc = None
        for c in reversed(self.coefficients):
            acc = c if acc is None else acc * x + c
        return 0 * x if acc is None else acc

    # -- ring operations -----------------------------------------------

    def __add__(self, other: "UniPoly") -> "UniPoly":
        if not isinstance(other, UniPoly):
            return NotImplemented
        out = []
        for a, b in itertools.zip_longest(self.coefficients, other.coefficients):
            out.append(b if a is None else a if b is None else a + b)
        return UniPoly(tuple(out))

    def __neg__(self) -> "UniPoly":
        return UniPoly(tuple(-c for c in self.coefficients))

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, UniPoly):
            if self.is_zero or other.is_zero:
                return UniPoly.zero()
            acc = [None] * (len(self.coefficients) + len(other.coefficients) - 1)
            for i, a in enumerate(self.coefficients):
                for j, b in enumerate(other.coefficients):
                    p = a * b
                    acc[i + j] = p if acc[i + j] is None else acc[i + j] + p
            return UniPoly(tuple(acc))
        scalar = _coerce(other)
        return UniPoly(tuple(c * scalar for c in self.coefficients))

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "UniPoly":
        return UniPoly(tuple(c / _coerce(scalar) for c in self.coefficients))

    def __pow__(self, n: int) -> "UniPoly":
        if n < 0:
            raise ValueError("negative power")
        out, base = UniPoly.one(), self
        while n:
            if n & 1:
                out = out * base
            base, n = base * base, n >> 1
        return out

    def __divmod__(self, other: "UniPoly"):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        lead = other.leading_coefficient
        zero = lead - lead
        rem = list(self.coefficients)
        dq = len(rem) - len(other.coefficients)
        if dq < 0:
            return UniPoly.zero(), self
        quot = [zero] * (dq + 1)
        for k in range(len(rem) - 1, other.degree - 1, -1):
            if not rem[k]:
                continue
            c = rem[k] / lead
            quot[k - other.degree] = c
            for i, b in enumerate(other.coefficients):
                rem[k - other.degree + i] = rem[k - other.degree + i] - c * b
        return UniPoly(tuple(quot)), UniPoly(tuple(rem))

    def __floordiv__(self, other: "UniPoly") -> "UniPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return divmod(self, other)[1]

    # -- calculus and normal forms --------------------------------------

    def derivative(self) -> "UniPoly":
        return UniPoly(tuple(i * c for i, c in enumerate(self.coefficients))[1:])

    def monic(self) -> "UniPoly":
        if self.is_zero:
            return self
        return self / self.leading_coefficient

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """Monic greatest common divisor (Euclid over the coefficient field)."""
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic()

    def compose(self, inner: "UniPoly") -> "UniPoly":
        """Substitution ``self(inner(x))`` by Horner's rule."""
        acc = UniPoly.zero()
        for c in reversed(self.coefficients):
            acc = acc * inner + UniPoly.constant(c)
        return acc

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coefficients):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*x" if c != 1 else "x")
            else:
                parts.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return " + ".join(reversed(parts)).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# squarefree decomposition (Yun), resultants, discriminants
# ---------------------------------------------------------------------------


def _primitive(coeffs):
    """Primitive part of a nonzero integer list, with positive leading coefficient."""
    content = int_gcd(*coeffs)
    if coeffs[-1] < 0:
        content = -content
    return [c // content for c in coeffs]


def _integer_primitive(p: UniPoly):
    """Primitive integer coefficient list of a nonzero ``p`` over Q."""
    den = lcm(*(c.denominator for c in p.coefficients))
    return _primitive([c.numerator * (den // c.denominator) for c in p.coefficients])


def _int_derivative(coeffs):
    return [i * c for i, c in enumerate(coeffs)][1:]


def _int_sub(a, b):
    out = [c - d for c, d in itertools.zip_longest(a, b, fillvalue=0)]
    while out and not out[-1]:
        out.pop()
    return out


def _int_pseudo_remainder(a, b):
    """A nonzero integer multiple of ``a mod b``, for integer lists with ``b`` nonzero.

    Each step scales the running remainder by ``lc(b) / g`` only, ``g`` the
    gcd of the two leading coefficients, instead of by ``lc(b)`` itself.
    """
    n = len(b) - 1
    lead = b[-1]
    r = a
    while len(r) > n:
        top = r[-1]
        g = int_gcd(top, lead)
        ra, rb = lead // g, top // g
        shift = len(r) - 1 - n
        r = [ra * c for c in r[:shift]] + [ra * c - rb * d for c, d in zip(r[shift:-1], b)]
        while r and not r[-1]:
            r.pop()
    return r


def _int_gcd(a, b):
    """Primitive gcd in ``Z[x]`` by a primitive remainder sequence; ``a`` nonzero."""
    while b:
        a, b = b, _int_pseudo_remainder(a, b)
        if b:
            b = _primitive(b)
    return _primitive(a)


def _int_exact_quotient(a, b):
    """``a / b`` in ``Z[x]``; raises ArithmeticError unless ``b`` divides ``a`` there."""
    n = len(b) - 1
    lead = b[-1]
    r = list(a)
    quot = [0] * max(len(r) - n, 0)
    for k in range(len(r) - 1, n - 1, -1):
        c, rem = divmod(r[k], lead)
        if rem:
            raise ArithmeticError("inexact division in Z[x]")
        if c:
            quot[k - n] = c
            for i in range(n):
                r[k - n + i] -= c * b[i]
    if any(r[:n]):
        raise ArithmeticError("inexact division in Z[x]")
    return quot


def _monic_fraction(coeffs) -> UniPoly:
    lead = coeffs[-1]
    return UniPoly(tuple(Fraction(c, lead) for c in coeffs))


def squarefree_decomposition(p: UniPoly):
    """Yun's squarefree decomposition (characteristic 0) of ``p`` over Q.

    Returns ``[(factor, multiplicity), ...]`` with monic squarefree pairwise
    coprime factors in ascending multiplicity, such that the product of
    ``factor**multiplicity`` equals ``p`` up to the leading coefficient.
    A nonzero constant decomposes into the empty list.

    The steps run in ``Z[x]`` on the primitive part of ``p``: the gcds are
    primitive remainder sequences, and every divisor is primitive, so by
    Gauss's lemma the quotients ``b = p/d``, ``p'/d``, ``b/a`` and ``z/a``
    are exact integer divisions.  Only the monic factors are Fractions.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has no decomposition")
    if p.degree == 0:
        return []
    p = _integer_primitive(p)
    dp = _int_derivative(p)
    d = _int_gcd(p, dp)
    if len(d) == 1:
        return [(_monic_fraction(p), 1)]
    b = _int_exact_quotient(p, d)
    z = _int_sub(_int_exact_quotient(dp, d), _int_derivative(b))
    out = []
    i = 1
    while len(b) > 1:
        a = _int_gcd(b, z)
        if len(a) > 1:
            out.append((_monic_fraction(a), i))
        b = _int_exact_quotient(b, a)
        z = _int_sub(_int_exact_quotient(z, a), _int_derivative(b))
        i += 1
    return out


def is_squarefree(p: UniPoly) -> bool:
    if p.is_zero:
        return False
    p = _integer_primitive(p)
    return len(_int_gcd(p, _int_derivative(p))) == 1


def _bareiss_det(mat) -> int:
    """Fraction-free determinant of an integer matrix (destructive)."""
    n = len(mat)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            for i in range(k + 1, n):
                if mat[i][k] != 0:
                    mat[k], mat[i] = mat[i], mat[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = mat[k][k]
        for i in range(k + 1, n):
            row_i, row_k = mat[i], mat[k]
            head = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - head * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * mat[-1][-1]


def sylvester_rows(p: UniPoly, q: UniPoly, k: int = 0):
    """Rows of the ``k``-th Sylvester matrix of ``p`` and ``q``, q-block on top.

    With ``m = deg p`` and ``n = deg q``, the rows are the coefficient vectors
    of ``x^(m-k-1) q, ..., q`` and then ``x^(n-k-1) p, ..., p`` over the
    monomials ``x^(m+n-k-1), ..., x, 1``.  ``k = 0`` is the Sylvester matrix of
    :func:`resultant`; :func:`subresultant_minor` reads the ``k``-th
    subresultant off the others.  Entries are the coefficients themselves
    (Fractions, or polynomials in a parameter) padded with ``0``.
    """
    m, n = p.degree, q.degree
    size = m + n - k
    rows = []
    for poly, count in ((q, m - k), (p, n - k)):
        desc = list(reversed(poly.coefficients))
        for shift in range(count):
            rows.append([0] * shift + desc + [0] * (size - shift - len(desc)))
    return rows


def resultant(p: UniPoly, q: UniPoly) -> Fraction:
    """Resultant of ``p`` and ``q``; see the module docstring for orientation.

    Zero iff ``p`` and ``q`` share a root over the complex numbers (both
    nonzero); antisymmetric up to the sign ``(-1)^(deg p * deg q)``.  The
    Sylvester matrix has constant entries, so its determinant is the
    constant term of :func:`poly_matrix_det`.
    """
    if p.is_zero and q.is_zero:
        raise ValueError("resultant undefined for two zero polynomials")
    if p.is_zero or q.is_zero:
        return Fraction(0)
    det = poly_matrix_det(sylvester_rows(p, q))
    return det.coefficients[0] if det else Fraction(0)


def discriminant(p: UniPoly) -> Fraction:
    """Discriminant; zero iff ``p`` has a repeated root.  Degree >= 1 required."""
    n = p.degree
    if n < 1:
        raise ValueError("discriminant requires degree >= 1")
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * resultant(p, p.derivative()) / p.leading_coefficient


# ---------------------------------------------------------------------------
# determinants of polynomial matrices
# ---------------------------------------------------------------------------


def poly_matrix_det(rows) -> UniPoly:
    """Determinant of a square matrix whose entries are UniPolys, ints or Fractions.

    Evaluation-interpolation in integers.  Each row is scaled once by the
    lcm of the denominators of all its coefficients, so the integer matrix
    has determinant ``s`` times the wanted one, ``s`` the product of the
    row scales.  That determinant has degree at most ``N``, the sum over
    rows of the largest entry degree, so its values at the integer nodes
    ``0..N`` (integer Horner, then :func:`_bareiss_det`) determine it.
    Newton forward differences of integer values on consecutive nodes are
    integers; the Newton form ``sum_k D^k y_0 x(x-1)...(x-k+1) / k!`` is
    summed by Horner's rule over the common denominator ``N! s``, so
    Fractions are built only for the output coefficients.
    """
    if not rows:
        return UniPoly.one()
    int_rows = []
    scale = 1
    bound = 0
    for row in rows:
        entries = [e.coefficients if isinstance(e, UniPoly) else (e,) if e else () for e in row]
        width = max(map(len, entries))
        if not width:
            return UniPoly.zero()  # an all-zero row
        den = lcm(*(c.denominator for coeffs in entries for c in coeffs))
        int_rows.append([[c.numerator * (den // c.denominator) for c in coeffs]
                         for coeffs in entries])
        scale *= den
        bound += width - 1
    values = []
    for node in range(bound + 1):
        mat = []
        for row in int_rows:
            scalar_row = []
            for coeffs in row:
                value = 0
                for c in reversed(coeffs):
                    value = value * node + c
                scalar_row.append(value)
            mat.append(scalar_row)
        values.append(_bareiss_det(mat))
    # in place: values[k] becomes the k-th forward difference at node 0
    for k in range(1, bound + 1):
        for i in range(bound, k - 1, -1):
            values[i] -= values[i - 1]
    # Horner in the falling-factorial basis; weight runs through N!/k!
    acc = [values[bound]]
    weight = 1
    for k in range(bound - 1, -1, -1):
        weight *= k + 1
        acc = ([values[k] * weight - k * acc[0]]
               + [a - k * b for a, b in zip(acc, acc[1:] + [0])])
    den = weight * scale
    return UniPoly(tuple(Fraction(a, den) for a in acc))


def subresultant_minor(rows, j: int) -> UniPoly:
    """Coefficient of ``x^j`` in the subresultant ``S_k``, ``rows = sylvester_rows(p, q, k)``.

    It is the determinant of the first ``len(rows) - 1`` columns followed by
    the column of ``x^j``, for ``j <= k``.  ``j = k`` gives the principal
    subresultant coefficient ``psc_k``, and ``k = j = 0`` the resultant.
    Over a field and for ``deg p > deg q >= k``, ``deg gcd(p, q)`` is the
    least ``k`` with ``psc_k != 0``, and ``S_k`` is then a nonzero multiple
    of the gcd (Basu, Pollack and Roy, *Algorithms in Real Algebraic
    Geometry*, ch. 8).  Both statements pass to a residue field of the
    entries, such as ``Q[lam]/(m)``, when the map keeps ``deg p`` and
    ``deg q``, because determinants commute with ring maps.
    """
    column = len(rows[0]) - 1 - j
    return poly_matrix_det([row[:len(rows) - 1] + [row[column]] for row in rows])


# ---------------------------------------------------------------------------
# literals (the wire format shared by files and the CLI)
# ---------------------------------------------------------------------------


def unipoly_to_literal(p: UniPoly):
    """Ascending list of coefficient strings, e.g. ``["0", "-1/2", "1"]``."""
    return [str(c) for c in p.coefficients]


def unipoly_from_literal(obj) -> UniPoly:
    if not isinstance(obj, (list, tuple)):
        raise LiteralError("polynomial literal must be a JSON array")
    coeffs = []
    for tok in obj:
        if isinstance(tok, bool) or not isinstance(tok, (str, int)):
            raise LiteralError(f"bad coefficient token {tok!r}: expected integer or 'p/q' string")
        try:
            coeffs.append(Fraction(tok))
        except (ValueError, ZeroDivisionError) as exc:
            raise LiteralError(f"bad coefficient token {tok!r}: {exc}") from exc
    return UniPoly(tuple(coeffs))
