"""Pencils of hyperelliptic models as fibred surfaces over the line.

A pencil ``f_lam = (1 - lam) f0 + lam f1`` of degree 2g+2 models is treated
as a fibration over the base P^1, but only the affine lam-chart is searched.
The fibre at ``lam = oo`` is never smooth: ``f_lam = f0 + lam (f1 - f0)`` is
linear in lam, so the monodromy around infinity is the hyperelliptic
involution, which acts as -1 on H^1.  (``y^2 = f1 - f0`` is that fibre only
after the two-valued rescaling ``y -> sqrt(lam) y``.)  It is not classified,
and nothing printed stands for it.  Singular fibres sit over the roots of
``Disc_x(f_lam)``, one record per Galois orbit of roots as
:func:`fibrelab.factorization.galois_orbits` names and orders them.  Node
counts are exact, never numerical.  An orbit is the roots of an irreducible
factor m of the discriminant, a rational root r the orbit of ``m = lam - r``,
and every orbit is classified by subresultant certificates over Q[lam]/(m):
the gcd degrees of the fibre are the least k for which m does not divide a
principal subresultant coefficient psc_k.  The member is reduced mod m first,
which for ``lam - r`` is evaluation at r.  Every subresultant comes from one
subresultant remainder chain per integer node of lam, interpolated
(:func:`fibrelab.polynomial.subresultant`); a member reduced mod a linear m
has constant coefficients and needs one node.

The printed ``e_total`` is the affine-chart sum

    e(A) e(D) + sum over singular fibres of (e(A_s) - e(A))
        = 4(1 - g) + sum over orbits of conjugates * nodes,

where each ordinary node raises the fibre Euler number by one.  It is not
e(X): the fibre at infinity, the excess of a worse-than-node fibre over its
nodes and the excess at a base point (``gcd(f0, f1) != 1``) are left out.
(Some printed forms of this formula carry the opposite sign inside the sum;
the convention here is forced by e(A_s) >= e(A).)  Worse-than-node fibres
contribute their certified node count only and flag the sum as a lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple, Union

from .curves import (
    DEGREE_DROP,
    FibreKind,
    HyperellipticModel,
    classify_signature,
    seeded_rationals,
)
from .factorization import galois_orbits
from .polynomial import (
    UniPoly,
    _coerce,
    _rational_text,
    discriminant,
    integer_from_literal,
    subresultant,
    unipoly_from_literal,
    unipoly_to_literal,
)

NON_CONSTANT = "pencil is non-constant precondition violated"
EVERYWHERE_SINGULAR = "pencil is everywhere-singular"


@dataclass(frozen=True)
class Pencil:
    """One-parameter family (1 - lam) f0 + lam f1 of genus-g models."""

    g: int
    f0: UniPoly
    f1: UniPoly

    def __post_init__(self):
        if self.g < 2:
            raise ValueError("pencil genus must be >= 2")
        for f in (self.f0, self.f1):
            HyperellipticModel(self.g, f)
        lc0, lc1 = self.f0.leading_coefficient, self.f1.leading_coefficient
        if self.f0 * lc1 == self.f1 * lc0:
            raise ValueError(NON_CONSTANT)

    def member(self) -> UniPoly:
        """f_lam as one polynomial in x whose coefficients are ``a + (b - a) lam`` in Q[lam]."""
        return UniPoly(tuple(UniPoly((a, b - a))
                             for a, b in zip(self.f0.coefficients, self.f1.coefficients)))

    def fibre_at(self, lam) -> UniPoly:
        """The member f_lam (``lam`` read as a coefficient is); may drop degree."""
        lam = _coerce(lam)
        return UniPoly(tuple(c(lam) for c in self.member().coefficients))

    def to_dict(self) -> dict:
        return {
            "g": self.g,
            "f0": unipoly_to_literal(self.f0),
            "f1": unipoly_to_literal(self.f1),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "Pencil":
        return cls(integer_from_literal(obj["g"], "genus"),
                   unipoly_from_literal(obj["f0"]), unipoly_from_literal(obj["f1"]))


def seeded_pencil(g: int, seed: int) -> Pencil:
    """Deterministic pencil of two monic squarefree members.

    All ``2 (2g + 2)`` roots come from one collision-rejecting stream, so f0
    and f1 never share a root: the pencil has no base point on the branch
    locus, which is what makes the generic count of one-node fibres typical.
    """
    n = 2 * g + 2
    roots = seeded_rationals(seed, 2 * n)
    return Pencil(g, UniPoly.from_roots(roots[:n]), UniPoly.from_roots(roots[n:]))


@dataclass(frozen=True)
class SingularFibreRecord:
    """One Galois orbit of singular fibres.

    ``parameter`` is the rational parameter value or the monic irreducible
    minimal polynomial of the conjugate orbit; ``conjugate_count`` its
    degree (1 for rational).
    """

    parameter: Union[Fraction, UniPoly]
    conjugate_count: int
    nodes_per_fibre: int
    fibre_class: FibreKind

    def to_dict(self) -> dict:
        if isinstance(self.parameter, Fraction):
            key = {"param": _rational_text(self.parameter)}
        else:
            key = {"minpoly": unipoly_to_literal(self.parameter)}
        return {
            **key,
            "conjugates": self.conjugate_count,
            "nodes": self.nodes_per_fibre,
            "class": self.fibre_class.value,
        }


@dataclass(frozen=True)
class FibrationSummary:
    """Euler accounting over the base P^1 (``e_base = 2``, ``bound = 4 - 4g``),
    one record per Galois orbit in :func:`fibrelab.factorization.galois_orbits` order."""

    e_fibre: int
    e_base: int
    e_total: int
    singular_fibres: Tuple[SingularFibreRecord, ...]
    bound: int
    strict: bool
    euler_exact: bool  # False when a NonNodal fibre makes e_total a lower bound
    disc_degree: int  # deg Disc_x(f_lam); not part of the printed summary

    def to_dict(self) -> dict:
        return {
            "e_total": self.e_total,
            "bound": self.bound,
            "strict": self.strict,
            "fibres": [r.to_dict() for r in self.singular_fibres],
        }


def pencil_discriminant(pencil: Pencil) -> UniPoly:
    """``Disc_x(f_lam)`` in Q[lam]: :func:`fibrelab.polynomial.discriminant` of the member.

    Identically zero means every member is singular (e.g. f0 and f1 share a
    square factor) and raises.
    """
    disc = discriminant(pencil.member())
    if disc.is_zero:
        raise ValueError(EVERYWHERE_SINGULAR)
    return disc


def _reduced_gcd(p: UniPoly, q: UniPoly, m: UniPoly, start: int):
    """Degree of ``gcd(p, q)`` over ``Q[lam]/(m)``, and its subresultant mod ``m``.

    ``p`` and ``q`` have coefficients in ``Q[lam]`` and leading coefficients
    that ``m`` does not divide, and ``m`` divides ``psc_j(p, q)`` for every
    ``j < start``.  Returns ``(k, s)`` with ``k`` the least index whose
    ``psc_k`` is nonzero mod ``m`` and ``s`` the subresultant ``S_k(p, q)``
    with its coefficients reduced mod ``m``, so of degree ``k`` in x.
    """
    # psc at k = deg q is a power of lc(q), nonzero mod the irreducible m, so the loop returns
    for k in range(start, q.degree + 1):
        s = [c % m for c in subresultant(p, q, k)]
        if s[k]:
            return k, UniPoly(tuple(s))


def orbit_signature(f: UniPoly, m: UniPoly):
    """Gcd-degree signature ``(d1, d2, d3)`` of ``f`` over ``Q[lam]/(m)``.

    ``f`` is a polynomial in x with coefficients in ``Q[lam]``; ``m`` is an
    irreducible factor of ``Disc_x(f)``, so one root of ``m`` is one fibre of
    the orbit (of a linear ``m = lam - r``, the rational parameter ``r``).
    ``f`` is reduced mod ``m`` first and refused if that drops its degree.
    ``d1`` is the least ``k >= 1`` with ``psc_k(f, f')`` nonzero mod ``m``
    (``psc_0`` is ``+-lc(f) Disc(f)``).  When ``d1 >= 2`` the subresultant
    ``u1 = S_d1(f, f')``, reduced mod ``m``, is a unit multiple of
    ``gcd(f, f')`` over ``Q[lam]/(m)``, and the same test on ``(u1, u1')``
    gives ``d2``, then on ``(u2, u2')`` gives ``d3``.  Reducing before each
    round keeps the coefficients of ``u`` below degree ``deg m`` in lam.
    """
    u = UniPoly(tuple(c % m for c in f.coefficients))
    if u.degree < f.degree:
        where = (f"along factor {unipoly_to_literal(m)}" if m.degree > 1 else
                 f"at parameter {_rational_text(-m.coefficients[0] / m.leading_coefficient)}")
        raise ValueError(f"{DEGREE_DROP} {where}")
    signature = [0, 0, 0]
    for i, start in enumerate((1, 0, 0)):
        signature[i], u = _reduced_gcd(u, u.derivative(), m, start)
        if signature[i] < 2:  # a linear u is coprime to the constant u'
            break
    return tuple(signature)


def euler_summary(g: int, records: Sequence[SingularFibreRecord],
                  disc_degree: int) -> FibrationSummary:
    """Assemble the fibre-wise Euler accounting of a genus-g fibration over P^1."""
    e_fibre = 2 - 2 * g
    bound = 4 - 4 * g
    contribution = sum(r.conjugate_count * r.nodes_per_fibre for r in records)
    exact = all(r.fibre_class != FibreKind.NON_NODAL for r in records)
    e_total = 2 * e_fibre + contribution
    if e_total < bound:
        raise ValueError(f"e_total {e_total} below the lower bound {bound}: "
                         "a record carries a negative node contribution")
    strict = bool(records) and g != 1
    return FibrationSummary(e_fibre, 2, e_total, tuple(records), bound, strict, exact,
                            disc_degree)


def total_space_euler(pencil: Pencil) -> FibrationSummary:
    """One pass: the discriminant, its Galois orbits, one record per orbit.

    Every orbit is classified by :func:`orbit_signature`, a rational
    parameter ``r`` as the orbit of ``lam - r``.
    """
    disc = pencil_discriminant(pencil)
    f = pencil.member()
    records = []
    for location, _mult in galois_orbits(disc):
        m = UniPoly((-location, 1)) if isinstance(location, Fraction) else location
        fc = classify_signature(pencil.g, *orbit_signature(f, m))
        records.append(SingularFibreRecord(location, m.degree, fc.t, fc.kind))
    return euler_summary(pencil.g, records, disc.degree)
