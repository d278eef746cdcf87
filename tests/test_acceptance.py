"""Acceptance suite: one test per criterion, all exact (zero tolerance).

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion on stdout.
"""

import json
import os
import random
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import jsonschema
import pytest

from fibrelab import schemas
from fibrelab.curves import (
    FibreKind,
    HyperellipticModel,
    classify,
    construct_nodal,
    construct_split,
    j_invariant,
)
from fibrelab.geography import (
    SurfaceInvariants,
    XiaoCase,
    blow_up,
    hurwitz_bound,
    kodaira_slope,
    xiao_admissible_scan,
    xiao_validate,
)
from fibrelab.linear_systems import (
    Bidegree,
    HirzebruchClass,
    SeveriSpec,
    arithmetic_genus_p1xp1,
    delpezzo_anticanonical_dim,
    h0_p1xp1,
    hirzebruch_genus,
    prescribed_nodes_dimension,
    severi_dimension,
)
from fibrelab.pencils import pencil_discriminant, seeded_pencil, total_space_euler
from fibrelab.polynomial import UniPoly, discriminant
from cli_examples import EXAMPLES
from conftest import fraction_squarefree_decomposition


def report(criterion: str, ok: bool) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, criterion


def test_criterion_1_node_planting_soundness():
    failures = []
    for g in range(2, 7):
        for t in range(g + 1):
            for seed in range(50):
                fc = classify(construct_nodal(g, t, seed))
                expected_kind = FibreKind.SMOOTH if t == 0 else FibreKind.IRREDUCIBLE_NODAL
                if fc.kind != expected_kind or fc.t != t or fc.geometric_genus != g - t:
                    failures.append((g, t, seed, fc))
    report("1 node-planting soundness (750 cases)", not failures)


def test_criterion_2_discriminant_squarefree_equivalence():
    rng = random.Random(20260809)
    checked = 0
    ok = True
    while checked < 500:
        degree = rng.randint(1, 12)
        coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(degree)]
        coeffs.append(Fraction(rng.choice([c for c in range(-9, 10) if c])))
        p = UniPoly(tuple(coeffs))
        if rng.random() < 0.45:  # plant a repeated root, keeping degree <= 12
            root = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            square = UniPoly.from_roots([root, root])
            q, _ = divmod(p, square)
            p = square * q if q.degree >= 0 and not q.is_zero else square
        if p.degree < 1:
            continue
        checked += 1
        has_repeated = any(m >= 2 for _, m in fraction_squarefree_decomposition(p))
        if (discriminant(p) == 0) != has_repeated:
            ok = False
            break
    report("2 discriminant/squarefree oracle equivalence (500 polys)", ok and checked == 500)


def test_criterion_3_fibration_euler_formula():
    ok = True
    for seed in range(20):
        pencil = seeded_pencil(2, seed)
        disc = pencil_discriminant(pencil)
        summary = total_space_euler(pencil)
        contributions = sum(r.conjugate_count * r.nodes_per_fibre
                            for r in summary.singular_fibres)
        ok &= summary.e_total == summary.e_fibre * summary.e_base + contributions
        ok &= summary.e_total == -4 + contributions
        # generic pencils: ten one-node fibres, matching the discriminant degree
        ok &= disc.degree == 10 and contributions == 10
        ok &= all(r.nodes_per_fibre == 1 for r in summary.singular_fibres)
        # boxed bound with the strictness clause
        ok &= summary.bound == 4 * (2 - 1) * (0 - 1)
        ok &= summary.e_total > summary.bound and summary.strict
    report("3 fibration Euler formula (20 genus-2 pencils)", ok)


def test_criterion_4_noether_blow_up_suite():
    rng = random.Random(11)
    ok = True
    for _ in range(100):
        chi = rng.randint(-5, 20)
        K2 = rng.randint(-30, 50)
        inv = SurfaceInvariants(chi=chi, K2=K2, e=12 * chi - K2)
        n = rng.randint(0, 100)
        stepped = inv
        for _ in range(n):
            stepped = blow_up(stepped, 1)
        jumped = blow_up(inv, n)
        ok &= stepped == jumped
        ok &= 12 * jumped.chi == jumped.K2 + jumped.e
    plane = SurfaceInvariants(chi=1, K2=9, e=3)
    once = blow_up(plane, 1)
    ok &= (once.K2, once.e, once.chi) == (8, 4, 1)
    report("4 Noether/blow-up suite (100 seeds, n <= 100)", ok)


def test_criterion_5_xiao_geography():
    ok = True
    for g2 in (0, 1, 2):
        for row in xiao_admissible_scan(g2, 12):
            for K2 in range(row.k2_min, row.k2_max + 1):
                inv = SurfaceInvariants(chi=row.chi, q=row.q, p_g=row.p_g,
                                        K2=K2, g2=g2, epsilon=row.epsilon)
                if not xiao_validate(inv, XiaoCase.CASE_II).ok:
                    ok = False
    fixture = [r for r in xiao_admissible_scan(0, 1) if (r.chi, r.epsilon) == (1, 0)]
    ok &= len(fixture) == 1 and (fixture[0].k2_min, fixture[0].k2_max) == (-4, 2)
    for chi in (1, 2, 5):
        inv = SurfaceInvariants(chi=chi, q=0, p_g=chi - 1, K2=8 * chi + 1,
                                g2=0, epsilon=(chi - 1) % 2)
        failed = [c.name for c in xiao_validate(inv, XiaoCase.CASE_II).failures()]
        ok &= "k2_8chi" in failed
    report("5 Xiao geography (scan g2 in {0,1,2}, chi <= 12)", ok)


def test_criterion_6_linear_system_cross_identities():
    ok = True
    for a in range(1, 9):
        for b in range(1, 9):
            ok &= severi_dimension(SeveriSpec(Bidegree(a, b), 0)) == (a + 1) * (b + 1) - 1
    for a in range(1, 7):
        for b in range(1, 7):
            ok &= hirzebruch_genus(HirzebruchClass(0, a, b)) == 1 + a * b - a - b
    for g in range(2, 7):
        for c in range(g + 1):
            ok &= prescribed_nodes_dimension(g, c) + 2 * c == \
                severi_dimension(SeveriSpec(Bidegree(2, g + 1), c))
    ok &= delpezzo_anticanonical_dim(1) == 1
    ok &= delpezzo_anticanonical_dim(2) == 3
    report("6 linear-system cross-identities", ok)


def test_criterion_7_j_invariant_suite():
    ok = j_invariant(1, 0) == 1728 and j_invariant(0, 1) == 0
    try:
        j_invariant(-3, 2)
        ok = False
    except ValueError:
        pass
    rng = random.Random(99)
    count = 0
    while count < 100:
        a, b = rng.randint(-20, 20), rng.randint(-20, 20)
        u = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if u == 0 or 4 * Fraction(a) ** 3 + 27 * Fraction(b) ** 2 == 0:
            continue
        count += 1
        ok &= j_invariant(u**4 * a, u**6 * b) == j_invariant(a, b)
    report("7 j-invariant suite", ok)


def test_criterion_8_slope_and_bounds_fixtures():
    ok = kodaira_slope(8, 4)[1].value == "product-like"
    nu, verdict = kodaira_slope(16, 6)
    ok &= nu == Fraction(8, 3) and verdict.value == "admissible"
    ok &= kodaira_slope(9, 3)[1].value == "inadmissible"
    ok &= kodaira_slope(10, 3)[1].value == "inadmissible"
    ok &= hurwitz_bound(3) == 168
    report("8 slope and bounds fixtures", ok)


def test_criterion_9_cli_determinism_and_schema():
    # the runs are independent cold interpreters, so they go side by side
    with ThreadPoolExecutor(max_workers=os.cpu_count()) as pool:
        runs = [[pool.submit(subprocess.run, [sys.executable, "-m", "fibrelab", *argv],
                             capture_output=True) for _ in range(3)]
                for _, argv, _, _ in EXAMPLES]
    ok = True
    for (_, _, schema_name, fmt), futures in zip(EXAMPLES, runs):
        outputs = []
        for future in futures:
            proc = future.result()
            ok &= proc.returncode == 0
            outputs.append(proc.stdout)
        ok &= outputs[0] == outputs[1] == outputs[2]
        if fmt == "json" and schema_name:
            try:
                jsonschema.validate(json.loads(outputs[0]), getattr(schemas, schema_name))
            except jsonschema.ValidationError:
                ok = False
    report("9 CLI determinism and schema (3 runs per example)", ok)


def test_criterion_10_fibration_euler_formula_higher_genus():
    # seeded pencils at g = 3 and 4: every discriminant has full degree
    # 4g + 2, so no singular fibre hides at lam = infinity
    ok = True
    for g, seeds in ((3, range(5)), (4, range(3))):
        for seed in seeds:
            pencil = seeded_pencil(g, seed)
            summary = total_space_euler(pencil)
            records = summary.singular_fibres
            ok &= pencil_discriminant(pencil).degree == 4 * g + 2
            ok &= all(r.nodes_per_fibre == 1 for r in records)
            ok &= sum(r.conjugate_count * r.nodes_per_fibre for r in records) == 4 * g + 2
            ok &= summary.e_total == 6 and summary.strict and summary.euler_exact
    report("10 fibration Euler formula (5 genus-3 and 3 genus-4 pencils)", ok)


def test_criterion_11_node_planting_higher_genus():
    # degree 16..26 models: every t in 0..g and the split member
    failures = []
    for g in range(7, 13):
        for seed in range(5):
            for t in range(g + 2):
                if t > g:
                    fc, want = classify(construct_split(g, seed)), (FibreKind.SPLIT_NODAL, g + 1, 0)
                else:
                    kind = FibreKind.SMOOTH if t == 0 else FibreKind.IRREDUCIBLE_NODAL
                    fc, want = classify(construct_nodal(g, t, seed)), (kind, t, g - t)
                if (fc.kind, fc.t, fc.geometric_genus) != want:
                    failures.append((g, t, seed, fc))
    report("11 node-planting soundness at g = 7..12 (345 cases)", not failures)
