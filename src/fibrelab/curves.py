"""Genus-g hyperelliptic models y^2 = f(x) and their nodal degenerations.

A model of genus ``g`` is a polynomial ``f`` of degree exactly ``2g + 2``,
read as a binary form of that degree (:class:`HyperellipticModel`), so
nothing is lost over ``x = infinity``.  The classification of a fibre
follows the squarefree structure of ``f``:

* squarefree                        -> smooth of genus g, e = 2 - 2g
* only double roots + simple roots  -> irreducible with t nodes,
                                       geometric genus g - t, e = 2 - 2g + t
* a perfect square c * s(x)^2       -> two rational components crossing at
                                       the g + 1 roots of s, e = 3 - g
* any root of multiplicity >= 3     -> worse than nodal; only the certified
                                       node count (the multiplicity-2 part)
                                       is reported

The j-invariant uses the standard normalisation
``j = 1728 * 4a^3 / (4a^3 + 27b^2)``, pinned by the fixtures j(1,0) = 1728,
j(0,1) = 0 and by invariance under (a, b) -> (u^4 a, u^6 b).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .factorization import galois_orbits
from .polynomial import (
    UniPoly,
    _coerce,
    _rational_text,
    integer_from_literal,
    repeated_part,
    unipoly_from_literal,
    unipoly_to_literal,
)

DEGREE_DROP = "degenerate model: degree drop"
NODE_RANGE = "node count out of range [0, g]"


class FibreKind(str, enum.Enum):
    SMOOTH = "Smooth"
    IRREDUCIBLE_NODAL = "IrreducibleNodal"
    SPLIT_NODAL = "SplitNodal"
    NON_NODAL = "NonNodal"


@dataclass(frozen=True)
class HyperellipticModel:
    """``y^2 = f(x)`` with deg f = 2g + 2 exactly, ``f`` read as a binary form.

    ``f`` lists the coefficients of ``h(x0, x1) = sum c_k x0^(2g+2-k) x1^k``
    and ``x = x1 / x0``.  ``deg f = 2g + 2`` means ``h(0, 1) = lc(f) != 0``:
    the curve has two smooth points over ``x0 = 0``, so its singular points
    are those of the affine chart.
    """

    g: int
    f: UniPoly

    def __post_init__(self):
        if self.g < 1:
            raise ValueError("genus must be >= 1")
        want = 2 * self.g + 2
        if self.f.degree < want:
            raise ValueError(DEGREE_DROP)
        if self.f.degree > want:
            raise ValueError(f"model degree {self.f.degree} exceeds 2g+2 = {want}")

    def to_dict(self) -> dict:
        return {"genus": self.g, "f": unipoly_to_literal(self.f)}

    @classmethod
    def from_dict(cls, obj: dict) -> "HyperellipticModel":
        return cls(integer_from_literal(obj["genus"], "genus"), unipoly_from_literal(obj["f"]))


@dataclass(frozen=True)
class FibreClass:
    """Classification of one fibre.

    ``t`` is the certified node count (0 when smooth, g + 1 for a split
    fibre, the multiplicity-2 degree for worse-than-nodal fibres).
    ``geometric_genus`` and ``euler_number`` are None when the fibre is not
    certified nodal (kind ``NonNodal``): the closed formulas only apply to
    nodal curves.
    """

    kind: FibreKind
    t: int
    intersections: Optional[int]
    geometric_genus: Optional[int]
    euler_number: Optional[int]

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "t": self.t,
            "intersections": self.intersections,
            "geometric_genus": self.geometric_genus,
            "euler": self.euler_number,
        }


@dataclass(frozen=True)
class SingularPoint:
    """A singular x-locus: a rational point or a conjugate Galois orbit."""

    location: Union[Fraction, UniPoly]  # exact root, or its minimal polynomial
    local_type: str  # "node" | "worse"

    @property
    def conjugates(self) -> int:
        return 1 if isinstance(self.location, Fraction) else self.location.degree


# ---------------------------------------------------------------------------
# deterministic root streams
# ---------------------------------------------------------------------------

_MASK = (1 << 64) - 1


def _splitmix64(state: int):
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK, state


_NUMERATORS, _DENOMINATORS = range(-20, 21), range(1, 7)
# distinct values of the stream: 2/4 and 1/2 are one value
_STREAM_VALUES = len({Fraction(p, q) for p in _NUMERATORS for q in _DENOMINATORS})


def seeded_rationals(seed: int, count: int):
    """``count`` pairwise distinct small rationals, reproducible bit-for-bit.

    Splitmix-style stream mapped onto numerators in [-20, 20] and
    denominators in [1, 6], drawing again on collisions (Fraction equality,
    so 2/4 collides with 1/2).  A ``count`` above the number of distinct
    values in that range raises ``ValueError`` before anything is drawn.
    """
    if count > _STREAM_VALUES:
        raise ValueError(f"{_rational_text(count)} distinct seeded rationals requested; "
                         f"the stream has only {_STREAM_VALUES}")
    state = seed & _MASK
    out = []
    seen = set()
    while len(out) < count:
        v1, state = _splitmix64(state)
        v2, state = _splitmix64(state)
        r = Fraction(_NUMERATORS[v1 % len(_NUMERATORS)],
                     _DENOMINATORS[v2 % len(_DENOMINATORS)])
        if r in seen:
            continue
        seen.add(r)
        out.append(r)
    return out


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def construct_nodal(g: int, t: int, seed: int) -> HyperellipticModel:
    """Monic degree 2g+2 model with exactly t double roots, rest simple.

    For t >= 1 this is an irreducible curve of arithmetic genus g with t
    nodes; t = 0 gives a smooth model.
    """
    if g < 2:
        raise ValueError("construction requires g >= 2")
    if t < 0 or t > g:
        raise ValueError(NODE_RANGE)
    n_double, n_simple = t, 2 * g + 2 - 2 * t
    roots = seeded_rationals(seed, n_double + n_simple)
    return HyperellipticModel(g, UniPoly.from_roots(roots[:n_double] + roots))


def construct_split(g: int, seed: int) -> HyperellipticModel:
    """Model f = s(x)^2 with s squarefree of degree g + 1: two rational
    components meeting transversally in g + 1 points."""
    if g < 2:
        raise ValueError("construction requires g >= 2")
    roots = seeded_rationals(seed, g + 1)
    return HyperellipticModel(g, UniPoly.from_roots(roots + roots))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def classify_signature(g: int, d1: int, d2: int, d3: int) -> FibreClass:
    """Fibre class of ``y^2 = f`` from the gcd-degree signature of ``f`` as a binary form.

    ``f`` is read as a binary form of degree ``2g + 2``, so a root at
    ``x = oo`` counts like any other (:func:`fibrelab.pencils.orbit_signature`
    adds it); when ``deg f = 2g + 2`` there is none, and
    ``d1 = deg u1``, ``d2 = deg u2``, ``d3 = deg u3`` for ``u1 = gcd(f, f')``,
    ``u2 = gcd(u1, u1')``, ``u3 = gcd(u2, u2')``.  Gcd degrees are stable
    under base change to C, so the signature may be computed over Q or over
    any number field containing the coefficients:

    * ``d1`` counts repeated roots with multiplicity minus one,
    * ``d2 > 0`` iff some root has multiplicity >= 3,
    * ``d1 - 2 d2 + d3`` is the degree of the multiplicity-exactly-2 part,
    * when ``d2 == 0`` every repeated root is a double root, so the fibre has
      exactly ``d1`` nodes, and it splits into two components exactly when
      the double roots cover all ``2g + 2`` roots, i.e. ``d1 = g + 1``.
    """
    if d1 == 0:
        return FibreClass(FibreKind.SMOOTH, 0, None, g, 2 - 2 * g)
    if d2 > 0:
        return FibreClass(FibreKind.NON_NODAL, d1 - 2 * d2 + d3, None, None, None)
    if d1 == g + 1:
        # f = c * s^2 with s squarefree: two components, g + 1 crossings
        return FibreClass(FibreKind.SPLIT_NODAL, g + 1, g + 1, 0, 3 - g)
    if not 1 <= d1 <= g:
        raise ValueError(f"{d1} double roots do not fit a model of degree 2g+2 = {2 * g + 2}")
    return FibreClass(FibreKind.IRREDUCIBLE_NODAL, d1, None, g - d1, 2 - 2 * g + d1)


def classify(model: HyperellipticModel) -> FibreClass:
    """Classify a fibre over Q by its gcd chain.

    ``u1 = gcd(f, f')``, ``u2 = gcd(u1, u1')`` and ``u3 = gcd(u2, u2')``, each
    by :func:`fibrelab.polynomial.repeated_part`, give the signature that
    :func:`classify_signature` decides on.
    """
    signature, u = [], model.f
    for _ in range(3):
        u = repeated_part(u)
        signature.append(u.degree)
    return classify_signature(model.g, *signature)


def singular_points(model: HyperellipticModel):
    """Singular points of y^2 = f(x), one entry per Galois orbit.

    They are the Galois orbits of the roots of ``u1 = gcd(f, f')``, named
    and ordered by :func:`fibrelab.factorization.galois_orbits`: rational
    roots exactly, conjugate orbits by their minimal polynomial.  A root of
    multiplicity ``k`` in f has multiplicity ``k - 1`` in ``u1``; the local
    type is ``node`` iff ``k`` is exactly 2, so iff the orbit is simple in
    ``u1``.
    """
    return [SingularPoint(location, "node" if mult == 1 else "worse")
            for location, mult in galois_orbits(repeated_part(model.f))]


def j_invariant(a, b) -> Fraction:
    """j of the smooth cubic y^2 = x^3 + a x + b; ``a``, ``b`` read as coefficients are."""
    a, b = _coerce(a), _coerce(b)
    disc = 4 * a**3 + 27 * b**2
    if not disc:
        raise ValueError("singular cubic has no j-invariant")
    return 1728 * 4 * a**3 / disc
