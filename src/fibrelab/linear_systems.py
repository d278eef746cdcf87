"""Closed-form linear-system numerology on P^1 x P^1, Hirzebruch surfaces,
and the degree-1 Del Pezzo surface.

These calculators implement standard dimension and genus formulas as
contracts; the verification strategy is the web of cross-identities between
independent routes (adjunction on F_0 vs. the bidegree genus formula,
Severi dimensions vs. h^0 counts, prescribed-node counts vs. Severi
dimensions), exercised by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Bidegree:
    """A curve class of bidegree (a, b) on P^1 x P^1."""

    a: int
    b: int

    def __post_init__(self):
        if self.a < 0 or self.b < 0:
            raise ValueError("bidegree components must be nonnegative")


@dataclass(frozen=True)
class HirzebruchClass:
    """Divisor class a*h + b*f on F_e (h the negative section, f a fibre)."""

    e: int
    a: int
    b: int

    def __post_init__(self):
        if self.e < 0:
            raise ValueError("Hirzebruch parameter e must be nonnegative")


@dataclass(frozen=True)
class SeveriSpec:
    """Irreducible nodal curves of a given bidegree with t prescribed nodes."""

    bidegree: Bidegree
    t: int

    def __post_init__(self):
        if self.t < 0:
            raise ValueError("node count must be nonnegative")


def h0_p1xp1(d: Bidegree) -> int:
    """h^0 of O(a, b) on the quadric: (a+1)(b+1)."""
    return (d.a + 1) * (d.b + 1)


def arithmetic_genus_p1xp1(d: Bidegree) -> int:
    """Adjunction genus 1 + ab - a - b of a bidegree-(a, b) curve; needs a, b >= 1."""
    if d.a < 1 or d.b < 1:
        raise ValueError("adjunction formula requires a,b >= 1")
    return 1 + d.a * d.b - d.a - d.b


def severi_dimension(s: SeveriSpec) -> Optional[int]:
    """Dimension ab + a + b - t of the t-nodal family, or None when empty.

    The family is nonempty exactly for 0 <= t <= arithmetic genus;
    emptiness is a value, not an error.
    """
    p_a = arithmetic_genus_p1xp1(s.bidegree)
    if s.t > p_a:
        return None
    return s.bidegree.a * s.bidegree.b + s.bidegree.a + s.bidegree.b - s.t


def prescribed_nodes_dimension(g: int, c: int) -> int:
    """dim of genus-g curves of bidegree (2, g+1) singular at c fixed general
    points: 3g + 5 - 3c.  Moving the nodes adds back 2c parameters, matching
    the Severi dimension 3g + 5 - c."""
    if c < 0 or c > g:
        raise ValueError(f"prescribed node count {c} out of range [0, {g}]")
    return 3 * g + 5 - 3 * c


def hirzebruch_intersection(c1: HirzebruchClass, c2: HirzebruchClass) -> int:
    """Bilinear extension of f.f = 0, h.f = 1, h.h = -e on F_e."""
    if c1.e != c2.e:
        raise ValueError("mismatched Hirzebruch parameter e")
    return c1.a * c2.b + c2.a * c1.b - c1.e * c1.a * c2.a


def hirzebruch_genus(c: HirzebruchClass) -> int:
    """Adjunction genus 1 + C.(C + K)/2 with K = -2h - (e + 2)f."""
    k = HirzebruchClass(c.e, -2, -(c.e + 2))
    candidate = HirzebruchClass(c.e, c.a + k.a, c.b + k.b)
    # C.(C + K) = 2(ab - a - b) - e a(a - 1) is even for every class
    return 1 + hirzebruch_intersection(c, candidate) // 2


def hirzebruch_effective(c: HirzebruchClass) -> bool:
    """Whether a*h + b*f contains an irreducible curve off the fibres:
    a > 0 and b >= a*e."""
    return c.a > 0 and c.b >= c.a * c.e


def delpezzo_anticanonical_dim(r: int) -> int:
    """dim |-rK| = r(r+1)/2 on the degree-1 Del Pezzo surface."""
    if r < 1:
        raise ValueError("anticanonical multiple must be >= 1")
    return r * (r + 1) // 2


def hyperelliptic_bidegree(g: int) -> Bidegree:
    """The unique 2 <= a <= b with a + b = g + 3 and genus g: (2, g + 1).

    A genus-g curve of degree g + 3 on the quadric has bidegree solving
    a + b = g + 3 and (a - 1)(b - 1) = ab - a - b + 1 = g.  So a - 1 and
    b - 1 sum to g + 1 and multiply to g: they are the roots 1 and g of
    t^2 - (g + 1) t + g, and a <= b gives (a, b) = (2, g + 1).
    """
    if g < 2:
        raise ValueError("hyperelliptic bidegree requires g >= 2")
    return Bidegree(2, g + 1)
