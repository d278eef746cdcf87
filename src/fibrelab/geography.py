"""Numerical geography of fibred surfaces: identities, bounds, and scans.

All validators return reports rather than raising, so a scan over thousands
of tuples is never interrupted by a single failing inequality.  Each check
carries its evaluated sides and a short citation of the classical result it
encodes (Noether's formula, the Bogomolov-Miyaoka-Yau inequality, Xiao's
genus-2 fibration bounds, the Arakelov/Liu slope window, Hurwitz's
automorphism bound).  Each check is one ``_check`` call; a check that does
not apply to the given tuple carries the reason as its note.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from typing import Iterator, Optional, Tuple

from .polynomial import _rational_text


@dataclass(frozen=True)
class SurfaceInvariants:
    """Numerical invariants of a surface, possibly with a fibration attached.

    Optional members default to None ("not supplied").  The two defining
    identities chi = 1 - q + p_g and 12 chi = K2 + e are enforced whenever
    all participating members are present; the inequality checks below
    never are (verdicts belong in reports).
    """

    chi: Optional[int] = None
    q: Optional[int] = None
    p_g: Optional[int] = None
    K2: Optional[int] = None
    e: Optional[int] = None
    g1: Optional[int] = None  # genus of the general fibre
    g2: Optional[int] = None  # genus of the base
    epsilon: Optional[int] = None  # Xiao's degree of instability
    d: Optional[int] = None  # elliptic-fibration degree of (R^1 f_* O)^dual

    def __post_init__(self):
        if None not in (self.chi, self.q, self.p_g) and self.chi != 1 - self.q + self.p_g:
            raise ValueError("surface invariants violate chi = 1 - q + p_g")
        if None not in (self.chi, self.K2, self.e) and 12 * self.chi != self.K2 + self.e:
            raise ValueError("surface invariants violate 12 chi = K2 + e")

    def to_dict(self) -> dict:
        return asdict(self)


class CheckStatus(str, enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    INAPPLICABLE = "inapplicable"


def json_number(v):
    """A Fraction as an int when integral and as its ``p/q`` string otherwise;
    any other value unchanged."""
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else _rational_text(v)
    return v


@dataclass(frozen=True)
class Check:
    name: str
    status: CheckStatus
    lhs: Optional[object]
    rhs: Optional[object]
    citation: str
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name, "status": self.status.value,
            "lhs": json_number(self.lhs), "rhs": json_number(self.rhs),
            "citation": self.citation, "note": self.note,
        }


@dataclass(frozen=True)
class GeographyReport:
    checks: Tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(c.status != CheckStatus.FAIL for c in self.checks)

    def failures(self):
        return [c for c in self.checks if c.status == CheckStatus.FAIL]

    def to_dict(self) -> dict:
        return {"ok": self.ok, "checks": [c.to_dict() for c in self.checks]}


_RELATIONS = {"<=": operator.le, "<": operator.lt, "==": operator.eq,
              ">=": operator.ge, ">": operator.gt}


def _check(name, lhs, relation, rhs, citation, note="", skip="") -> Check:
    """``lhs relation rhs`` as a passing or failing check; a non-empty ``skip``
    is the reason the check does not apply, and it becomes the note of an
    inapplicable check without sides."""
    if skip:
        return Check(name, CheckStatus.INAPPLICABLE, None, None, citation, skip)
    holds = _RELATIONS[relation](lhs, rhs)
    return Check(name, CheckStatus.PASS if holds else CheckStatus.FAIL,
                 lhs, rhs, citation, note)


# ---------------------------------------------------------------------------
# Noether's formula and blow-ups
# ---------------------------------------------------------------------------


def noether_complete(inv: SurfaceInvariants) -> SurfaceInvariants:
    """Complete a partial tuple through 12 chi = K2 + e and chi = 1 - q + p_g.

    A tuple is over-determined when chi comes with both other members of one
    identity, and under-determined when neither identity has two members (a
    chi from the other counts).  Without chi, K2, e, q and p_g may all be
    given: chi comes from (K2, e), and SurfaceInvariants refuses a tuple that
    then breaks chi = 1 - q + p_g.  A non-integral chi from (K2, e) is
    rejected: no smooth compact surface has such a pair.
    """
    chi, q, p_g, K2, e = inv.chi, inv.q, inv.p_g, inv.K2, inv.e
    n_count = sum(v is not None for v in (chi, K2, e))
    h_count = sum(v is not None for v in (chi, q, p_g))
    if n_count == 3 or h_count == 3:
        raise ValueError("noether completion is over-determined")
    if n_count < 2 and h_count < 2:
        raise ValueError("noether completion is under-determined")
    if chi is None and None not in (K2, e):
        total = K2 + e
        if total % 12:
            raise ValueError(f"non-integral completion: chi = {_rational_text(total)}/12")
        chi = total // 12
    if chi is None and None not in (q, p_g):
        chi = 1 - q + p_g
    if chi is not None:
        if K2 is None and e is not None:
            K2 = 12 * chi - e
        if e is None and K2 is not None:
            e = 12 * chi - K2
        if q is None and p_g is not None:
            q = 1 - chi + p_g
        if p_g is None and q is not None:
            p_g = chi - 1 + q
    return replace(inv, chi=chi, q=q, p_g=p_g, K2=K2, e=e)


def blow_up(inv: SurfaceInvariants, n: int = 1) -> SurfaceInvariants:
    """Blow up n points: K2 drops by n, e rises by n, chi/q/p_g unchanged."""
    if n < 0:
        raise ValueError("cannot blow up a negative number of points")
    if None in (inv.chi, inv.K2, inv.e):
        raise ValueError("blow-up requires chi, K2 and e")
    return replace(inv, K2=inv.K2 - n, e=inv.e + n)


# ---------------------------------------------------------------------------
# fibration bounds
# ---------------------------------------------------------------------------


def fibration_chi_bounds(inv: SurfaceInvariants) -> GeographyReport:
    """Bounds tying chi, q, e to the fibre and base genera (g1, g2)."""
    if None in (inv.g1, inv.g2) or inv.chi is None:
        raise ValueError("fibration bounds require g1, g2 and chi")
    g1, g2, chi, q, e = inv.g1, inv.g2, inv.chi, inv.q, inv.e
    no_q = "q not supplied" if q is None else ""
    return GeographyReport((
        # chi - (g1 - 1)(g2 - 1) = deg f_* omega_X/B >= 0, 0 on a product of curves
        _check("chi_fibration", chi, ">=", (g1 - 1) * (g2 - 1), "Fujita, JMSJ 30 (1978)"),
        _check("q_lower", q, ">=", g2, "pullback of Pic(D) is injective", skip=no_q),
        _check("q_upper", q, "<=", g1 + g2, "Beauville's irregularity bound", skip=no_q),
        _check("euler_fibration", e, ">=", 4 * (g1 - 1) * (g2 - 1), "BHPV III.11.6",
               skip="e not supplied" if e is None else ""),
    ))


# ---------------------------------------------------------------------------
# Xiao's genus-2 system
# ---------------------------------------------------------------------------


def _xiao_k2_window_ii(chi: int, q: int, p_g: int, g2: int, eps: int):
    """``(lower, upper)``: the case-(ii) bounds on K2 of Xiao LNM 1137, Thm 2.2(ii)."""
    return (max(2 * chi + 6 * (g2 - 1), chi + 7 * (g2 - 1) + 3 * eps),
            min(6 * p_g - 5 * q + 3 * g2 + 2, 7 * chi + g2 - 1))


class XiaoCase(str, enum.Enum):
    CASE_I = "case_i"   # unstable bundle with the branch divisor containing D0
    CASE_II = "case_ii"  # everything else


def xiao_validate(inv: SurfaceInvariants, case: XiaoCase | str) -> GeographyReport:
    """Evaluate Xiao's genus-2 fibration system on a full invariant tuple.

    Needs chi, q, p_g, K2, g2 and epsilon; the geometric dichotomy between
    the two K2 windows is not determined by the numbers alone, so the case
    is an explicit caller flag.  Case (i) additionally assumes epsilon > 0;
    its checks are inapplicable otherwise.
    """
    case = XiaoCase(case)
    if None in (inv.chi, inv.q, inv.p_g, inv.K2, inv.g2, inv.epsilon):
        raise ValueError("xiao_validate requires chi, q, p_g, K2, g2, epsilon")
    if inv.g1 is not None and inv.g1 != 2:
        raise ValueError("xiao_validate applies to genus-2 fibrations (g1 = 2)")
    chi, q, p_g, K2, g2, eps = inv.chi, inv.q, inv.p_g, inv.K2, inv.g2, inv.epsilon

    thm21 = "Xiao LNM 1137, Thm 2.1"
    checks = [
        _check("eps_pg", eps, "<=", p_g + 1, thm21),
        _check("eps_parity", eps % 2, "==", (chi + g2 - 1) % 2, thm21),
        _check("eps_lower", eps, ">=", -g2, thm21),
        _check("eps_upper", eps, "<=", chi - g2 + 1, thm21),
        _check("eps_forced_by_q", eps, "==", chi - g2 + 1, thm21,
               skip="needs q > g2" if q <= g2 else ""),
        _check("q_iff_eps_forward", eps, "==", p_g + 1 - 2 * g2, thm21,
               skip="needs q = g2 + 1" if q != g2 + 1 else ""),
        _check("q_iff_eps_backward", q, "==", g2 + 1, thm21,
               skip="needs eps = p_g + 1 - 2 g2" if eps != p_g + 1 - 2 * g2 else ""),
    ]
    if case is XiaoCase.CASE_I:
        thm22i = "Xiao LNM 1137, Thm 2.2(i)"
        skip = "case (i) assumes eps > 0" if eps <= 0 else ""
        checks += [
            _check("k2_lower_i", 2 * chi + 6 * (g2 - 1), "<=", K2, thm22i, skip=skip),
            _check("k2_upper_i", K2, "<=", 3 * chi + 5 * (g2 - 1) - 2 * eps, thm22i,
                   skip=skip),
            _check("eps_half_i", Fraction(eps), "<=", Fraction(chi - g2 + 1, 2), thm22i,
                   skip=skip),
        ]
    else:
        thm22ii = "Xiao LNM 1137, Thm 2.2(ii)"
        lower, upper = _xiao_k2_window_ii(chi, q, p_g, g2, eps)
        checks += [
            _check("k2_lower_ii", lower, "<=", K2, thm22ii),
            _check("k2_upper_ii", K2, "<=", upper, thm22ii),
        ]
    checks.append(_check("k2_8chi", K2, "<=", 8 * chi, "Xiao LNM 1137, p. 18"))
    return GeographyReport(tuple(checks))


# the columns of a CSV scan row, in order; every column but the flags is an integer
_CSV_COLUMNS = ("chi", "epsilon", "k2_min", "k2_max", "flags")
CSV_HEADER = ",".join(_CSV_COLUMNS)


@dataclass(frozen=True)
class ScanRow:
    """One admissible (chi, epsilon) tuple with its realizable K2 window."""

    chi: int
    epsilon: int
    q: int
    p_g: int
    k2_min: int
    k2_max: int
    flags: Tuple[str, ...]

    def to_dict(self) -> dict:
        return {**asdict(self), "flags": list(self.flags)}

    def csv_row(self) -> str:
        numbers = [_rational_text(getattr(self, c)) for c in _CSV_COLUMNS[:-1]]
        return ",".join(numbers + [";".join(self.flags)])


def xiao_admissible_scan(g2: int, chi_max: int) -> Iterator[ScanRow]:
    """Enumerate genus-2 fibration tuples admissible for a genus-g2 base.

    For g2 - 1 <= chi <= chi_max and 0 <= eps <= chi - g2 + 1 with
    eps = chi + g2 - 1 (mod 2), emit the K2 window of the case-(ii) bounds
    capped by K2 <= 8 chi.  The irregularity is q = g2 (the generic stratum)
    except where that stratum is numerically impossible (for g2 = 0 the top
    value eps = chi + 1 forces q = g2 + 1, and the row is flagged).  Rows with
    eps = 0 carry a weaker existence guarantee and are flagged "eps0".

    The arguments are checked at the call; rows are then yielded lazily in
    (chi, eps) order.
    """
    if g2 < 0:
        raise ValueError("base genus must be nonnegative")
    if chi_max < g2 - 1:
        raise ValueError("chi_max below the minimum chi = g2 - 1")
    rows = (_scan_row(g2, chi, eps) for chi in range(g2 - 1, chi_max + 1)
            for eps in range((chi + g2 - 1) % 2, chi - g2 + 2, 2))
    return (row for row in rows if row is not None)


def _scan_row(g2: int, chi: int, eps: int) -> Optional[ScanRow]:
    # the generic stratum q = g2, or where it is impossible and eps takes its
    # top value chi - g2 + 1, the forced stratum q = g2 + 1
    for q in range(g2, g2 + 1 + (eps == chi - g2 + 1)):
        p_g = chi - 1 + q
        if p_g >= 0 and eps <= p_g + 1:
            break
    else:
        return None
    flags = ("q=g2+1",) * (q > g2) + ("eps0",) * (eps == 0)
    lower, upper = _xiao_k2_window_ii(chi, q, p_g, g2, eps)
    upper = min(upper, 8 * chi)
    if lower > upper:
        return None
    return ScanRow(chi, eps, q, p_g, lower, upper, flags)


# ---------------------------------------------------------------------------
# general type, elliptic fibrations, slope, automorphisms
# ---------------------------------------------------------------------------


def general_type_checks(inv: SurfaceInvariants, minimal: bool) -> GeographyReport:
    """BMY inequality, positivity, and the Noether inequality (minimal case)."""
    if None in (inv.K2, inv.e):
        raise ValueError("general-type checks require K2 and e")
    not_minimal = "" if minimal else "surface not minimal"
    noether_line = Fraction(inv.K2, 2) + 2
    return GeographyReport((
        _check("bmy", inv.K2, "<=", 3 * inv.e, "Bogomolov-Miyaoka-Yau"),
        _check("k2_positive", inv.K2, ">", 0, "minimal general type", skip=not_minimal),
        _check("noether_inequality", inv.p_g, "<=", noether_line, "Noether inequality",
               "Noether line" if inv.p_g == noether_line else "",
               skip=not_minimal or ("p_g not supplied" if inv.p_g is None else "")),
    ))


def elliptic_c2(d: int):
    """(c2, chi) = (12 d, d) for a relatively minimal elliptic fibration.

    K2 = 0 in the relatively minimal case, so Noether's formula pins
    c2 = 12 chi = 12 d; d = 0 exactly when the only singular fibres are
    multiple fibres with smooth reduction.
    """
    if d < 0:
        raise ValueError("elliptic fibration degree must be nonnegative")
    return 12 * d, d


class SlopeVerdict(str, enum.Enum):
    PRODUCT_LIKE = "product-like"
    ADMISSIBLE = "admissible"
    INADMISSIBLE = "inadmissible"


def kodaira_slope(K2: int, c2: int):
    """Slope nu = K2/c2 with the Kodaira-fibration verdict.

    Products have nu = 2 exactly; genuine Kodaira fibred surfaces satisfy
    2 < nu < 3 (Arakelov below, Liu above).
    """
    if c2 <= 0:
        raise ValueError("Kodaira fibred surfaces have positive c2")
    nu = Fraction(K2, c2)
    if nu == 2:
        verdict = SlopeVerdict.PRODUCT_LIKE
    elif 2 < nu < 3:
        verdict = SlopeVerdict.ADMISSIBLE
    else:
        verdict = SlopeVerdict.INADMISSIBLE
    return nu, verdict


def hurwitz_bound(g: int) -> int:
    """84(g - 1), the maximal automorphism count of a genus-g curve, g >= 2."""
    if g < 2:
        raise ValueError("automorphism bound requires genus >= 2")
    return 84 * (g - 1)
