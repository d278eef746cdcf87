import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibrelab.geography import (
    Check,
    CheckStatus,
    GeographyReport,
    ScanRow,
    SlopeVerdict,
    SurfaceInvariants,
    XiaoCase,
    blow_up,
    elliptic_c2,
    fibration_chi_bounds,
    general_type_checks,
    hurwitz_bound,
    json_number,
    kodaira_slope,
    noether_complete,
    xiao_admissible_scan,
    xiao_validate,
)


def by_name(report: GeographyReport, name: str) -> Check:
    return next(c for c in report.checks if c.name == name)


class TestSurfaceInvariants:
    def test_identities_enforced_when_fully_specified(self):
        SurfaceInvariants(chi=1, q=0, p_g=0, K2=9, e=3)  # the plane
        with pytest.raises(ValueError, match="12 chi"):
            SurfaceInvariants(chi=1, K2=9, e=4)
        with pytest.raises(ValueError, match="1 - q"):
            SurfaceInvariants(chi=2, q=0, p_g=0)

    def test_partial_tuples_are_fine(self):
        SurfaceInvariants(K2=9)
        SurfaceInvariants()


class TestNoetherComplete:
    def test_plane_from_chern_numbers(self):
        assert noether_complete(SurfaceInvariants(K2=9, e=3)).chi == 1

    def test_euler_from_chi_and_k2(self):
        assert noether_complete(SurfaceInvariants(chi=1, K2=7)).e == 5

    def test_non_integral_completion_rejected(self):
        with pytest.raises(ValueError, match="non-integral"):
            noether_complete(SurfaceInvariants(K2=8, e=3))

    def test_over_determined_rejected(self):
        with pytest.raises(ValueError, match="over-determined"):
            noether_complete(SurfaceInvariants(chi=1, K2=9, e=3))

    def test_under_determined_rejected(self):
        with pytest.raises(ValueError, match="under-determined"):
            noether_complete(SurfaceInvariants(chi=1))

    def test_hodge_identity_chains_into_noether(self):
        done = noether_complete(SurfaceInvariants(q=0, p_g=0, K2=9))
        assert (done.chi, done.e) == (1, 3)

    def test_consistent_double_pair_completes(self):
        # without chi both identities may take both their other members
        assert noether_complete(SurfaceInvariants(K2=9, e=3, q=0, p_g=0)).chi == 1

    def test_inconsistent_double_pair_rejected(self):
        with pytest.raises(ValueError, match="violate chi = 1 - q"):
            noether_complete(SurfaceInvariants(K2=9, e=3, q=5, p_g=1))


class TestBlowUp:
    def test_plane_fixture(self):
        plane = SurfaceInvariants(chi=1, K2=9, e=3)
        once = blow_up(plane, 1)
        assert (once.K2, once.e, once.chi) == (8, 4, 1)

    def test_identity_blow_up(self):
        plane = SurfaceInvariants(chi=1, K2=9, e=3)
        assert blow_up(plane, 0) == plane

    def test_del_pezzo_degree_one_values(self):
        eight = blow_up(SurfaceInvariants(chi=1, K2=9, e=3), 8)
        assert (eight.K2, eight.e) == (1, 11)
        assert 12 * eight.chi == eight.K2 + eight.e

    def test_noether_preserved_on_random_seeds(self):
        rng = random.Random(4)
        for _ in range(100):
            chi = rng.randint(-3, 12)
            K2 = rng.randint(-20, 9 * max(chi, 1))
            inv = SurfaceInvariants(chi=chi, K2=K2, e=12 * chi - K2)
            n = rng.randint(0, 100)
            out = blow_up(inv, n)
            assert 12 * out.chi == out.K2 + out.e
            assert (out.K2, out.e) == (inv.K2 - n, inv.e + n)


class TestFibrationChiBounds:
    def test_violating_chi(self):
        report = fibration_chi_bounds(SurfaceInvariants(chi=0, q=2, g1=2, g2=2))
        assert by_name(report, "chi_fibration").status == CheckStatus.FAIL

    @pytest.mark.parametrize("g1,g2", itertools.product(range(2, 6), repeat=2))
    def test_a_product_of_curves_meets_the_bounds_with_equality(self, g1, g2):
        # C_g1 x C_g2: chi = (g1-1)(g2-1), q = g1 + g2, K2 = 2e = 8(g1-1)(g2-1)
        chi = (g1 - 1) * (g2 - 1)
        inv = noether_complete(SurfaceInvariants(q=g1 + g2, p_g=g1 * g2, K2=8 * chi,
                                                 g1=g1, g2=g2))
        report = fibration_chi_bounds(inv)
        assert report.ok
        for name in ("chi_fibration", "q_upper", "euler_fibration"):
            assert by_name(report, name).lhs == by_name(report, name).rhs

    @pytest.mark.parametrize("g2", range(4))
    def test_every_scanned_genus_two_tuple_passes(self, g2):
        for row in xiao_admissible_scan(g2, 6):
            for K2 in (row.k2_min, row.k2_max):
                inv = SurfaceInvariants(chi=row.chi, q=row.q, p_g=row.p_g, K2=K2,
                                        e=12 * row.chi - K2, g1=2, g2=g2)
                assert fibration_chi_bounds(inv).ok, row

    def test_all_pass_for_rational_base_genus_two_fibre(self):
        report = fibration_chi_bounds(SurfaceInvariants(chi=1, q=0, p_g=0, g1=2, g2=0))
        assert report.ok

    def test_q_above_g1_plus_g2(self):
        report = fibration_chi_bounds(SurfaceInvariants(chi=5, q=5, g1=3, g2=1))
        assert [c.name for c in report.failures()] == ["q_upper"]

    def test_euler_check_applies_when_supplied(self):
        inv = SurfaceInvariants(chi=1, q=0, p_g=0, g1=2, g2=0, K2=6, e=6)
        report = fibration_chi_bounds(inv)
        assert by_name(report, "euler_fibration").status == CheckStatus.PASS


class TestXiaoValidate:
    def fixture(self, **overrides):
        base = dict(chi=1, q=0, p_g=0, K2=2, g2=0, epsilon=0)
        base.update(overrides)
        return SurfaceInvariants(**base)

    def test_case_ii_fixture_passes(self):
        report = xiao_validate(self.fixture(), XiaoCase.CASE_II)
        assert report.ok
        assert by_name(report, "k2_lower_ii").lhs == -4
        assert by_name(report, "k2_upper_ii").rhs == 2

    def test_corollary_failure(self):
        report = xiao_validate(self.fixture(K2=9), XiaoCase.CASE_II)
        assert "k2_8chi" in [c.name for c in report.failures()]

    def test_epsilon_range_failure(self):
        report = xiao_validate(self.fixture(epsilon=3, K2=2), XiaoCase.CASE_II)
        assert "eps_upper" in [c.name for c in report.failures()]

    def test_case_i_inapplicable_for_nonpositive_epsilon(self):
        report = xiao_validate(self.fixture(), XiaoCase.CASE_I)
        assert by_name(report, "k2_lower_i").status == CheckStatus.INAPPLICABLE

    def test_case_i_consistent_tuple_passes(self):
        inv = SurfaceInvariants(chi=4, q=0, p_g=3, K2=4, g2=0, epsilon=1)
        report = xiao_validate(inv, XiaoCase.CASE_I)
        assert report.ok
        low, high = by_name(report, "k2_lower_i"), by_name(report, "k2_upper_i")
        assert (low.lhs, low.rhs) == (2, 4)
        assert (high.lhs, high.rhs) == (4, 5)

    def test_case_i_window_narrower_than_case_ii(self):
        # the derived constraint eps <= (chi - g2 + 1)/2 only binds in case i
        inv = SurfaceInvariants(chi=2, q=0, p_g=1, K2=0, g2=0, epsilon=3)
        report = xiao_validate(inv, XiaoCase.CASE_I)
        assert by_name(report, "eps_half_i").status == CheckStatus.FAIL

    def test_biconditional_both_ways(self):
        # q = g2 + 1 forces eps = p_g + 1 - 2 g2 and conversely
        good = SurfaceInvariants(chi=1, q=1, p_g=1, K2=0, g2=0, epsilon=2)
        report = xiao_validate(good, XiaoCase.CASE_II)
        assert by_name(report, "q_iff_eps_forward").status == CheckStatus.PASS
        assert by_name(report, "q_iff_eps_backward").status == CheckStatus.PASS
        bad = SurfaceInvariants(chi=2, q=1, p_g=2, K2=4, g2=0, epsilon=1)
        report = xiao_validate(bad, XiaoCase.CASE_II)
        assert by_name(report, "q_iff_eps_forward").status == CheckStatus.FAIL

    def test_string_case_accepted(self):
        assert xiao_validate(self.fixture(), "case_ii").ok


class TestXiaoScan:
    def test_genus_zero_base_chi_one(self):
        rows = [r for r in xiao_admissible_scan(0, 1) if r.chi == 1]
        assert [r.epsilon for r in rows] == [0, 2]
        eps0 = rows[0]
        assert (eps0.k2_min, eps0.k2_max) == (-4, 2)
        assert "eps0" in eps0.flags

    def test_cap_at_eight_chi(self):
        for g2 in (0, 1, 2):
            for row in xiao_admissible_scan(g2, 12):
                assert row.k2_max <= 8 * row.chi

    def test_congruence_and_range(self):
        for row in xiao_admissible_scan(1, 6):
            assert 0 <= row.epsilon <= row.chi - 1 + 1
            assert (row.epsilon - (row.chi + 1 - 1)) % 2 == 0

    def test_genus_one_base_chi_zero(self):
        rows = [r for r in xiao_admissible_scan(1, 0)]
        assert [(r.chi, r.epsilon) for r in rows] == [(0, 0)]

    def test_every_row_validates(self):
        for g2 in (0, 1, 2):
            for row in xiao_admissible_scan(g2, 12):
                for K2 in range(row.k2_min, row.k2_max + 1):
                    inv = SurfaceInvariants(chi=row.chi, q=row.q, p_g=row.p_g,
                                            K2=K2, g2=g2, epsilon=row.epsilon)
                    report = xiao_validate(inv, XiaoCase.CASE_II)
                    assert report.ok, (g2, row, K2, report.failures())

    def test_upper_end_monotone_in_chi(self):
        # at fixed (g2, epsilon) the window's upper end never decreases with
        # chi, including across the q = g2 + 1 stratum boundary
        for g2 in (0, 1, 2):
            rows = list(xiao_admissible_scan(g2, 12))
            by_eps = {}
            for row in rows:
                by_eps.setdefault(row.epsilon, []).append(row)
            for grouped in by_eps.values():
                grouped.sort(key=lambda r: r.chi)
                for lo, hi in zip(grouped, grouped[1:]):
                    assert lo.k2_max <= hi.k2_max

    def test_only_drop_is_the_degenerate_corner(self):
        # every congruence-admissible (chi, eps) in range is emitted except
        # (g2=0, chi=-1, eps=0), where no q stratum gives p_g >= 0
        for g2 in (0, 1, 2):
            emitted = {(r.chi, r.epsilon) for r in xiao_admissible_scan(g2, 12)}
            expected = set()
            for chi in range(g2 - 1, 13):
                for eps in range(0, chi - g2 + 2):
                    if (eps - (chi + g2 - 1)) % 2 == 0:
                        expected.add((chi, eps))
            missing = expected - emitted
            assert missing == ({(-1, 0)} if g2 == 0 else set())

    def test_window_is_xiao_validate_window_capped_at_eight_chi(self):
        # the scan's ends are the bounds xiao_validate checks in case ii,
        # with the upper end capped by K2 <= 8 chi
        for g2 in (0, 1, 2):
            for row in xiao_admissible_scan(g2, 12):
                inv = SurfaceInvariants(chi=row.chi, q=row.q, p_g=row.p_g,
                                        K2=row.k2_min, g2=g2, epsilon=row.epsilon)
                report = xiao_validate(inv, XiaoCase.CASE_II)
                assert by_name(report, "k2_lower_ii").lhs == row.k2_min
                assert min(by_name(report, "k2_upper_ii").rhs, 8 * row.chi) == row.k2_max

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            list(xiao_admissible_scan(-1, 5))
        with pytest.raises(ValueError):
            list(xiao_admissible_scan(2, 0))


class TestGeneralType:
    def test_bmy_boundary(self):
        report = general_type_checks(SurfaceInvariants(chi=1, K2=9, e=3, q=0, p_g=0), minimal=False)
        bmy = by_name(report, "bmy")
        assert bmy.status == CheckStatus.PASS
        assert (bmy.lhs, bmy.rhs) == (9, 9)  # equality: the BMY boundary

    def test_noether_line_flagged(self):
        inv = SurfaceInvariants(K2=2, p_g=3, e=10)
        report = general_type_checks(inv, minimal=True)
        noether = by_name(report, "noether_inequality")
        assert noether.status == CheckStatus.PASS
        assert noether.note == "Noether line"

    def test_nonpositive_k2_fails_minimal(self):
        report = general_type_checks(SurfaceInvariants(K2=-1, e=13, chi=1), minimal=True)
        assert "k2_positive" in [c.name for c in report.failures()]


class TestEllipticC2:
    def test_fixtures(self):
        assert elliptic_c2(0) == (0, 0)
        assert elliptic_c2(1) == (12, 1)
        assert elliptic_c2(2) == (24, 2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            elliptic_c2(-1)

    @given(st.integers(0, 50))
    @settings(max_examples=30, deadline=None)
    def test_noether_with_vanishing_k2(self, d):
        c2, chi = elliptic_c2(d)
        completed = noether_complete(SurfaceInvariants(K2=0, e=c2))
        assert completed.chi == chi


class TestKodairaSlope:
    def test_product_like(self):
        nu, verdict = kodaira_slope(8, 4)
        assert nu == 2 and verdict == SlopeVerdict.PRODUCT_LIKE

    def test_record_slope(self):
        nu, verdict = kodaira_slope(16, 6)
        assert nu == Fraction(8, 3) and verdict == SlopeVerdict.ADMISSIBLE

    def test_three_is_inadmissible(self):
        assert kodaira_slope(9, 3)[1] == SlopeVerdict.INADMISSIBLE

    def test_nonpositive_c2_rejected(self):
        with pytest.raises(ValueError):
            kodaira_slope(1, 0)

    @given(st.integers(-30, 30), st.integers(1, 30), st.integers(1, 9))
    @settings(max_examples=80, deadline=None)
    def test_verdict_scale_invariant(self, K2, c2, m):
        assert kodaira_slope(K2, c2)[1] == kodaira_slope(m * K2, m * c2)[1]


class TestHurwitz:
    def test_genus_two(self):
        assert hurwitz_bound(2) == 84

    def test_klein_quartic_bound(self):
        assert hurwitz_bound(3) == 168

    def test_genus_one_rejected(self):
        with pytest.raises(ValueError):
            hurwitz_bound(1)


def test_json_number_int_or_string():
    assert json_number(Fraction(4)) == 4 and type(json_number(Fraction(4))) is int
    assert json_number(Fraction(-1, 3)) == "-1/3"
    assert json_number(7) == 7
    assert json_number(None) is None


def test_report_serialisation_shape():
    report = fibration_chi_bounds(SurfaceInvariants(chi=1, q=0, p_g=0, g1=2, g2=0))
    payload = report.to_dict()
    assert payload["ok"] is True
    assert {c["name"] for c in payload["checks"]} >= {"chi_fibration", "q_upper"}
    for check in payload["checks"]:
        assert set(check) == {"name", "status", "lhs", "rhs", "citation", "note"}


_XIAO_HEAD = ["eps_pg", "eps_parity", "eps_lower", "eps_upper", "eps_forced_by_q",
              "q_iff_eps_forward", "q_iff_eps_backward"]

# (validator on a seeded tuple, the check names it reports, in order)
_REPORT_SHAPES = {
    "chi_bounds": (
        fibration_chi_bounds,
        ["chi_fibration", "q_lower", "q_upper", "euler_fibration"]),
    "xiao_i": (
        lambda inv: xiao_validate(inv, XiaoCase.CASE_I),
        _XIAO_HEAD + ["k2_lower_i", "k2_upper_i", "eps_half_i", "k2_8chi"]),
    "xiao_ii": (
        lambda inv: xiao_validate(inv, XiaoCase.CASE_II),
        _XIAO_HEAD + ["k2_lower_ii", "k2_upper_ii", "k2_8chi"]),
    "general_minimal": (
        lambda inv: general_type_checks(inv, minimal=True),
        ["bmy", "k2_positive", "noether_inequality"]),
    "general_not_minimal": (
        lambda inv: general_type_checks(inv, minimal=False),
        ["bmy", "k2_positive", "noether_inequality"]),
}

_BOTH = {False, True}
_XIAO_CONDITIONAL = ["eps_forced_by_q", "q_iff_eps_forward", "q_iff_eps_backward"]

# per validator: the checks not applicable on every seeded tuple, each with
# the values "is inapplicable" takes over the tuples; every other check is
# applicable on all of them
_INAPPLICABLE_SEEN = {
    "chi_bounds": dict.fromkeys(["q_lower", "q_upper", "euler_fibration"], _BOTH),
    "xiao_i": dict.fromkeys(_XIAO_CONDITIONAL + ["k2_lower_i", "k2_upper_i", "eps_half_i"],
                            _BOTH),
    "xiao_ii": dict.fromkeys(_XIAO_CONDITIONAL, _BOTH),
    "general_minimal": {"noether_inequality": _BOTH},
    "general_not_minimal": dict.fromkeys(["k2_positive", "noether_inequality"], {True}),
}


def _seeded_invariants(rng: random.Random, variant: str) -> SurfaceInvariants:
    def maybe(value):
        return None if rng.random() < 0.3 else value

    if variant == "chi_bounds":
        return SurfaceInvariants(chi=rng.randint(-1, 9), q=maybe(rng.randint(0, 6)),
                                 e=maybe(rng.randint(-4, 90)), g1=rng.randint(1, 4),
                                 g2=rng.randint(0, 3))
    if variant.startswith("xiao"):
        q, p_g, g2 = rng.randint(0, 4), rng.randint(0, 8), rng.randint(0, 3)
        return SurfaceInvariants(chi=1 - q + p_g, q=q, p_g=p_g, K2=rng.randint(-2, 60),
                                 g2=g2, epsilon=rng.randint(-g2 - 1, 9))
    return SurfaceInvariants(K2=rng.randint(-3, 20), e=rng.randint(-3, 60),
                             p_g=maybe(rng.randint(0, 12)))


@pytest.mark.parametrize("variant", sorted(_REPORT_SHAPES))
def test_report_shape_is_fixed_whether_or_not_a_check_applies(variant):
    validate, names = _REPORT_SHAPES[variant]
    rng = random.Random(11)
    citations = {}
    applicability = {name: set() for name in names}
    for _ in range(400):
        report = validate(_seeded_invariants(rng, variant))
        assert [c.name for c in report.checks] == names
        for check in report.checks:
            assert citations.setdefault(check.name, check.citation) == check.citation
            inapplicable = check.status is CheckStatus.INAPPLICABLE
            applicability[check.name].add(inapplicable)
            if inapplicable:
                assert check.lhs is None and check.rhs is None and check.note
            else:
                assert check.lhs is not None and check.rhs is not None
    assert applicability == {name: _INAPPLICABLE_SEEN[variant].get(name, {False})
                             for name in names}


def test_not_minimal_takes_precedence_over_missing_p_g():
    report = general_type_checks(SurfaceInvariants(K2=4, e=20), minimal=False)
    assert by_name(report, "noether_inequality").note == "surface not minimal"
    report = general_type_checks(SurfaceInvariants(K2=4, e=20), minimal=True)
    assert by_name(report, "noether_inequality").note == "p_g not supplied"


_NOETHER_ERRORS = ("noether completion is over-determined",
                   "noether completion is under-determined",
                   "non-integral completion: chi = ",
                   "surface invariants violate ")


def test_noether_completion_on_a_grid_keeps_inputs_and_both_identities():
    completed = 0
    for chi, q, p_g, K2, e in itertools.product([None, -1, 0, 1, 2, 13, 24], repeat=5):
        supplied = {"chi": chi, "q": q, "p_g": p_g, "K2": K2, "e": e}
        try:
            done = noether_complete(SurfaceInvariants(**supplied, g1=2, d=3))
        except ValueError as exc:
            assert str(exc).startswith(_NOETHER_ERRORS), str(exc)
            continue
        completed += 1
        result = done.to_dict()
        assert all(result[k] == v for k, v in supplied.items() if v is not None)
        assert (result["g1"], result["d"]) == (2, 3)
        assert done.chi is not None
        assert done.K2 is None or 12 * done.chi == done.K2 + done.e
        assert done.q is None or done.chi == 1 - done.q + done.p_g
        assert None not in (done.K2, done.e) or None not in (done.q, done.p_g)
    assert completed > 0
