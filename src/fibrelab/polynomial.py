"""Exact univariate polynomial arithmetic over the rationals.

Coefficients are ``fractions.Fraction`` values, so every result is exact and
every emitted rational is automatically in lowest terms with a positive
denominator.  ``UniPoly`` is deliberately coefficient-agnostic: any value
type supporting ring arithmetic (``+``, ``-``, ``*``, ``bool``,
``int * value``) can serve as a coefficient of the ring operations
(division also needs ``/``), which is how a pencil member becomes one
polynomial in ``x`` with coefficients in ``Q[lam]``: its subresultants
(:func:`subresultant`) are then polynomials in ``lam``.

The repeated part :func:`repeated_part`, the monic ``gcd(p, p')``, runs in
``Z[x]``: denominators are cleared once and the gcd is a primitive polynomial
remainder sequence, which by Gauss's lemma is the gcd over Q up to a unit.
Fractions are built only for the monic result.  Iterated three times it
gives the gcd-degree signature of a fibre
(:func:`fibrelab.curves.classify_signature`).

Subresultants, and :func:`resultant` as ``S_0``, run in ``Z[x]`` too: the
coefficients are scaled to integers once, Brown's subresultant remainder
chain runs at each node of a window of consecutive integers, and the values
are interpolated by Newton forward differences over one common denominator.
Both remainder sequences share one pseudo-remainder routine.

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
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd, lcm
from typing import Iterable


class LiteralError(ValueError):
    """Malformed literal: a wrong JSON shape, or a token outside the grammar."""


def _coerce(value):
    """Read ints and literal strings as Fractions; pass exotic coefficient types through."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return rational_from_literal(value)
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
# repeated parts, resultants, discriminants
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


def _int_prem(a, b):
    """Pseudo-remainder ``lc(b)^(deg a - deg b + 1) * (a mod b)`` of integer lists, ``b`` nonzero.

    One step per power ``x^shift``, ``shift = deg a - deg b, ..., 0``, each
    scaling the running remainder by ``lc(b)``, so the power of ``lc(b)`` is
    exact even where a step cancels more than the top coefficient; ``a``
    itself when ``deg a < deg b``.
    """
    n = len(b) - 1
    lead = b[-1]
    r = list(a)
    for shift in range(len(a) - 1 - n, -1, -1):
        top = r.pop()
        r = [lead * c for c in r[:shift]] + [lead * c - top * d for c, d in zip(r[shift:], b)]
    while r and not r[-1]:
        r.pop()
    return r


def _int_gcd(a, b):
    """Primitive gcd in ``Z[x]`` by a primitive remainder sequence; ``a`` nonzero."""
    while b:
        a, b = b, _int_prem(a, b)
        if b:
            b = _primitive(b)
    return _primitive(a)


def _int_exact_divide(a, d: int):
    """``a / d`` in ``Z[x]`` for a nonzero integer ``d``; raises ArithmeticError unless exact."""
    quot = []
    for c in a:
        q, r = divmod(c, d)
        if r:
            raise ArithmeticError("inexact division in Z[x]")
        quot.append(q)
    return quot


def _monic_fraction(coeffs) -> UniPoly:
    lead = coeffs[-1]
    return UniPoly(tuple(Fraction(c, lead) for c in coeffs))


def repeated_part(p: UniPoly) -> UniPoly:
    """Monic ``gcd(p, p')`` of a nonzero ``p`` over Q.

    A root of multiplicity ``k`` in ``p`` has multiplicity ``k - 1`` here, so
    ``p`` is squarefree exactly when the result is ``1``.  The gcd is a
    primitive remainder sequence on the primitive integer multiple of ``p``;
    only the monic result is built from Fractions.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has no repeated part")
    p = _integer_primitive(p)
    return _monic_fraction(_int_gcd(p, _int_derivative(p)))


def resultant(p: UniPoly, q: UniPoly) -> Fraction:
    """Resultant of ``p`` and ``q``; see the module docstring for orientation.

    Zero iff ``p`` and ``q`` share a root over the complex numbers (both
    nonzero); antisymmetric up to the sign ``(-1)^(deg p * deg q)``.  It is
    the subresultant ``S_0``; a constant ``q`` leaves only its diagonal
    block, ``lc(q)^deg p``.
    """
    if p.is_zero and q.is_zero:
        raise ValueError("resultant undefined for two zero polynomials")
    if p.is_zero or q.is_zero:
        return Fraction(0)
    if p.degree < q.degree:
        return (-1) ** (p.degree * q.degree) * resultant(q, p)
    if q.degree == 0:
        return q.coefficients[0] ** p.degree
    s0 = subresultant(p, q, 0)[0]
    return s0.coefficients[0] if s0 else Fraction(0)


def discriminant(p: UniPoly) -> Fraction:
    """Discriminant; zero iff ``p`` has a repeated root.  Degree >= 1 required."""
    n = p.degree
    if n < 1:
        raise ValueError("discriminant requires degree >= 1")
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * resultant(p, p.derivative()) / p.leading_coefficient


# ---------------------------------------------------------------------------
# subresultants: one remainder chain per integer node, then interpolation
# ---------------------------------------------------------------------------


def _int_subresultants(a, b) -> dict:
    """Every nonzero subresultant ``{j: S_j}`` of integer lists, ``deg a >= deg b``.

    ``S_j`` (``j <= deg b``, ``j < deg a``) is the determinant polynomial of
    the Sylvester rows ``x^(n-j-1) a, ..., a, x^(m-j-1) b, ..., b`` with
    ``m = deg a``, ``n = deg b`` and the ``a``-block on top; ``S_n`` is
    ``lc(b)^(m-n-1) b``.  Brown's subresultant PRS with Lazard's step over a
    gap, as in Ducos, "Optimizations of the subresultant algorithm", JPAA 145
    (2000): with ``S_d`` regular of leading coefficient ``s`` and ``S_(d-1)``
    of degree ``e``, the ``S_j`` strictly between are zero,
    ``S_e = lc(S_(d-1))^(d-e-1) S_(d-1) / s^(d-e-1)`` and
    ``S_(e-1) = prem(S_d, -S_(d-1)) / (s^(d-e) lc(S_d))``.  Both divisions
    are exact in ``Z[x]``, so a zero ``psc_j`` (a defective chain) needs no
    other route.
    """
    chain = {}
    delta = len(a) - len(b)
    if delta:
        chain[len(b) - 1] = [b[-1] ** (delta - 1) * c for c in b]
    s = b[-1] ** delta
    a, b = b, _int_prem(a, [-c for c in b])
    while b:
        d, e = len(a) - 1, len(b) - 1
        chain[d - 1] = c = b
        delta = d - e
        if delta > 1:
            c = chain[e] = _int_exact_divide([b[-1] ** (delta - 1) * x for x in b],
                                             s ** (delta - 1))
        if not e:
            break
        b = _int_exact_divide(_int_prem(a, [-x for x in b]), s ** delta * a[-1])
        a, s = c, c[-1]
    return chain


def _int_horner(coeffs, x: int) -> int:
    value = 0
    for c in reversed(coeffs):
        value = value * x + c
    return value


def _interpolate(values, start: int, den: int) -> UniPoly:
    """The polynomial of degree ``< len(values)`` taking ``values[i] / den`` at ``start + i``.

    Newton forward differences of integer values on consecutive nodes are
    integers; the Newton form ``sum_k D^k y_0 (x - x_0)...(x - x_(k-1)) / k!``
    is summed by Horner's rule over the common denominator ``N! den``, so
    Fractions are built only for the output coefficients.
    """
    values = list(values)
    bound = len(values) - 1
    # in place: values[k] becomes the k-th forward difference at the first node
    for k in range(1, bound + 1):
        for i in range(bound, k - 1, -1):
            values[i] -= values[i - 1]
    # Horner in the Newton basis; weight runs through N!/k!
    acc = [values[bound]]
    weight = 1
    for k in range(bound - 1, -1, -1):
        weight *= k + 1
        node = start + k
        acc = ([values[k] * weight - node * acc[0]]
               + [a - node * b for a, b in zip(acc, acc[1:] + [0])])
    den *= weight
    return UniPoly(tuple(Fraction(a, den) for a in acc))


def subresultant(p: UniPoly, q: UniPoly, k: int) -> list:
    """Coefficients ``[c_0, ..., c_k]`` of the ``k``-th subresultant ``S_k(p, q)``.

    ``p`` and ``q`` have coefficients in Q or in ``Q[lam]`` (UniPolys), with
    ``m = deg p >= n = deg q >= k`` and ``k < m``; each ``c_j`` is a UniPoly in
    ``lam``.  ``c_j`` is the minor of the first ``m + n - 2k - 1`` columns and
    the column of ``x^j`` in the Sylvester rows ``x^(m-k-1) q, ..., q,
    x^(n-k-1) p, ..., p`` over ``x^(m+n-k-1), ..., 1`` (q-block on top), so
    ``c_k`` is ``psc_k`` and ``S_0`` the resultant.  Over a field and for
    ``m > n >= k``, ``deg gcd(p, q)`` is the least ``k`` with ``psc_k != 0``,
    and ``S_k`` is then a nonzero multiple of the gcd (Basu, Pollack and Roy,
    *Algorithms in Real Algebraic Geometry*, ch. 8).  Both pass to a residue
    field of the coefficients such as ``Q[lam]/(mu)`` when the map keeps
    both degrees, because determinants commute with ring maps.

    In integers: ``p`` and ``q`` are scaled once to clear denominators, which
    scales ``S_k`` by ``sp^(n-k) sq^(m-k)``, and the ``c_j`` have degree at
    most ``N = (n-k) deg_lam p + (m-k) deg_lam q``.  Node-window rule: the
    nodes are the first ``N + 1`` consecutive integers from 0 up at which
    neither leading coefficient vanishes, since only there does evaluation
    keep both degrees and so commute with ``S_k``.  Sign rule: the chain of
    :func:`_int_subresultants` puts the ``p``-block on top, so its ``S_k`` is
    multiplied by ``(-1)^((m-k)(n-k))``.  Each ``c_j`` is then interpolated.
    """
    m, n = p.degree, q.degree
    if not 0 <= k <= n <= m or k == m:
        raise ValueError(f"subresultant S_{k} needs deg p >= deg q >= k and k < deg p")
    int_polys, scale, bound = [], 1, 0
    for poly, rows in ((p, n - k), (q, m - k)):
        coeffs = [c.coefficients if isinstance(c, UniPoly) else (c,) for c in poly.coefficients]
        den = lcm(*(c.denominator for cs in coeffs for c in cs))
        int_polys.append([[c.numerator * (den // c.denominator) for c in cs] for cs in coeffs])
        scale *= den ** rows
        bound += rows * (max(map(len, coeffs)) - 1)
    int_p, int_q = int_polys
    start = node = 0
    while node <= start + bound:
        if not (_int_horner(int_p[-1], node) and _int_horner(int_q[-1], node)):
            start = node + 1
        node += 1
    sign = -1 if (m - k) * (n - k) % 2 else 1
    values = []
    for node in range(start, start + bound + 1):
        s_k = _int_subresultants([_int_horner(c, node) for c in int_p],
                                 [_int_horner(c, node) for c in int_q]).get(k, [])
        values.append([sign * c for c in s_k] + [0] * (k + 1 - len(s_k)))
    return [_interpolate(column, start, scale) for column in zip(*values)]


# ---------------------------------------------------------------------------
# literals (the wire format shared by files and the CLI)
# ---------------------------------------------------------------------------


def unipoly_to_literal(p: UniPoly):
    """Ascending list of coefficient strings, e.g. ``["0", "-1/2", "1"]``."""
    return [str(c) for c in p.coefficients]


# the whole grammar of a string token; ``int`` and ``Fraction`` alone would also
# take blanks, ``_`` separators, a ``+`` sign and non-ASCII digits, and
# ``Fraction`` decimals and exponents
INTEGER_PATTERN = "-?[0-9]+"
RATIONAL_PATTERN = INTEGER_PATTERN + "(/[0-9]+)?"
_INTEGER_TOKEN = re.compile(INTEGER_PATTERN)
_RATIONAL_TOKEN = re.compile(RATIONAL_PATTERN)


def _read_token(obj, token, parse, what: str, expected: str):
    if not (isinstance(obj, str) and token.fullmatch(obj)
            or isinstance(obj, int) and not isinstance(obj, bool)):
        raise LiteralError(f"bad {what} {obj!r}: expected {expected}")
    try:
        return parse(obj)
    except (ValueError, ZeroDivisionError) as exc:
        raise LiteralError(f"bad {what} {obj!r}: {exc}") from exc


def integer_from_literal(obj, what: str = "integer") -> int:
    """A JSON integer (not a bool), or a string matching ``-?[0-9]+`` in full."""
    return _read_token(obj, _INTEGER_TOKEN, int, what, "an integer")


def rational_from_literal(obj) -> Fraction:
    """A JSON integer (not a bool), or a string matching ``-?[0-9]+(/[0-9]+)?`` in full."""
    return _read_token(obj, _RATIONAL_TOKEN, Fraction, "coefficient token",
                       "integer or 'p/q' string")


def unipoly_from_literal(obj) -> UniPoly:
    """Parse an ascending list of integers and ``"p"`` / ``"p/q"`` strings."""
    if not isinstance(obj, (list, tuple)):
        raise LiteralError("polynomial literal must be a JSON array")
    return UniPoly(tuple(rational_from_literal(tok) for tok in obj))
