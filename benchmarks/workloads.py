"""The four benchmark workloads: inputs built from a seed, the timed calls
into fibrelab, and an independent check of every answer.

Inputs are products of ``(x - r)`` over rational roots drawn here with
``random.Random``; the package's own seeded helpers (``seeded_pencil``,
``seeded_rationals``) are never used to build an input, so changing them
cannot change a workload.  Every call into the package goes through a module
attribute (``pencils.total_space_euler(...)``) so that the traced run's
wrappers see it.

Callers must run :func:`checkout.require_source` before importing this module.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional

from fibrelab import curves, factorization, pencils, polynomial
from fibrelab.curves import FibreKind, HyperellipticModel
from fibrelab.pencils import Pencil
from fibrelab.polynomial import UniPoly, unipoly_to_literal

from checkout import ROOT, child_env

WORKLOADS = ("pencil-euler", "locus-ladder", "curve-census", "cli-cold")

# Why each workload exists; BENCHMARK.json carries the same lines.
WHY = {
    "pencil-euler": "g=2,3 generic and planted pencils: the orbit classifier over Q[lam]/(m) "
                    "does most of the work",
    "locus-ladder": "discriminant and factorization of g=4..8 pencils: Sylvester "
                    "evaluation-interpolation and sympy, no classifier",
    "curve-census": "construct, classify and singular points for g=2..12 and every t: "
                    "Yun over Q, many short ops",
    "cli-cold": "cold python -m fibrelab per subcommand: interpreter start and imports "
                "dominate",
}


def _roots(rng: random.Random, count: int, height: int, max_den: int = 1) -> list:
    """``count`` distinct rationals ``p/q`` with ``|p| <= height``, ``1 <= q <= max_den``."""
    seen, out = set(), []
    while len(out) < count:
        r = Fraction(rng.randint(-height, height), rng.randint(1, max_den))
        if r not in seen:
            seen.add(r)
            out.append(r)
    return out


def _planted_poly(roots: list, g: int, t: int) -> UniPoly:
    """Degree 2g+2 with ``t`` double roots (``t = g+1``: a perfect square).

    Takes the double roots first, then the simple ones, from ``roots``.
    """
    doubles = g + 1 if t > g else t
    s = UniPoly.from_roots(roots[:doubles])
    simple = 0 if t > g else 2 * g + 2 - 2 * t
    return s * s * UniPoly.from_roots(roots[doubles:doubles + simple])


def _planted_root_count(g: int, t: int) -> int:
    return g + 1 if t > g else 2 * g + 2 - t


def _expected_kind(g: int, t: int) -> FibreKind:
    if t == 0:
        return FibreKind.SMOOTH
    return FibreKind.SPLIT_NODAL if t > g else FibreKind.IRREDUCIBLE_NODAL


def _sympy_poly(p: UniPoly, symbol):
    import sympy

    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coefficients)]
    return sympy.Poly(coeffs, symbol, domain="QQ")


def _smooth_at_infinity(f0: UniPoly, f1: UniPoly) -> bool:
    """The member at lam = oo, ``f1 - f0`` read as a binary form of degree
    2g+2, is smooth: ``deg(f1 - f0) = 2g+1`` and ``f1 - f0`` is squarefree.

    fibrelab reads only the affine lam-chart: a singular member at lam = oo
    is outside its simulated window and is left out of e_total, so the checks
    below would rightly count such a pencil as failed.  Small integer roots
    make that case common (two monic members with equal root sums), so the
    generators draw again until the pencil is generic there too.  The checks
    still flag the case if it ever reaches them.
    """
    import sympy

    diff = f1 - f0
    if diff.degree != f0.degree - 1:
        return False
    return _sympy_poly(diff, sympy.Symbol("x")).sqf_part().degree() == diff.degree


@dataclass
class Workload:
    """A fixed op list for one seed, and the checker for its answers."""

    name: str
    ops: list
    batch: int  # the first ``batch`` ops form one traced batch
    check: Callable[[object, object], List[str]]  # (op, result) -> mismatches
    in_process: bool = True
    sympy_import_s: float = 0.0  # the set-up call that loads sympy


# ---------------------------------------------------------------------------
# pencil-euler
# ---------------------------------------------------------------------------

PENCIL_HEIGHT = 9  # integer roots in [-9, 9]: a generic g=3 pencil takes ~2 s
# One round: (genus, planted t); None is a generic pencil, t = g+1 a split
# member.  Cheap and expensive ops alternate so any prefix keeps the mix.
# Per round, g=2 ops (~0.08 s) are two thirds of the ops, so op_p50_s sits
# inside their cluster; the g=3 planted t=3 and split ops (~0.8 s) outnumber
# the generic g=3 op (~2 s) five to one, so the eleventh-slowest op of a
# 20 s run, op_tail_s, sits mid-way in the planted g=3 cluster.  Planted g=3
# pencils with t=1,2 cost as much as generic ones and would blur that cluster.
PENCIL_ROUND = ((2, None), (2, 1), (2, None), (3, 3), (2, None), (2, None), (3, 4),
                (2, None), (2, 2), (3, 3), (2, None), (3, None), (2, None), (3, 4),
                (2, None), (2, 3), (3, 3))
PENCIL_ROUNDS = 8


@dataclass(frozen=True)
class PencilOp:
    genus: int
    pencil: Pencil
    planted_t: Optional[int]  # the member at lam = 1 has this many nodes

    @property
    def label(self) -> str:
        return f"g{self.genus}-" + ("generic" if self.planted_t is None else f"t{self.planted_t}")

    def run(self):
        return pencils.total_space_euler(self.pencil)


def _pencil_op(rng: random.Random, g: int, t: Optional[int]) -> PencilOp:
    n = 2 * g + 2
    while True:
        if t is None:
            roots = _roots(rng, 2 * n, PENCIL_HEIGHT)
            f1 = UniPoly.from_roots(roots[n:])
        else:
            roots = _roots(rng, n + _planted_root_count(g, t), PENCIL_HEIGHT)
            f1 = _planted_poly(roots[n:], g, t)
        f0 = UniPoly.from_roots(roots[:n])
        if _smooth_at_infinity(f0, f1):
            return PencilOp(g, Pencil(g, f0, f1), t)


def _squarefree_discriminant(pencil: Pencil) -> bool:
    """Disc_x(f_lam) is squarefree in lam, computed by sympy alone."""
    import sympy

    x, lam = sympy.symbols("x lam")
    f = sum(((1 - lam) * sympy.Rational(a.numerator, a.denominator)
             + lam * sympy.Rational(b.numerator, b.denominator)) * x**k
            for k, (a, b) in enumerate(zip(pencil.f0.coefficients, pencil.f1.coefficients)))
    disc = sympy.Poly(sympy.discriminant(f, x), lam)
    return sympy.gcd(disc, disc.diff(lam)).degree() == 0


def check_pencil(op: PencilOp, summary) -> List[str]:
    g, records = op.genus, summary.singular_fibres
    errors = []
    contribution = sum(r.conjugate_count * r.nodes_per_fibre for r in records)
    if (summary.e_fibre, summary.e_base) != (2 - 2 * g, 2):
        errors.append(f"e_fibre, e_base = {summary.e_fibre}, {summary.e_base}")
    if summary.e_total != summary.e_fibre * summary.e_base + contribution:
        errors.append(f"e_total {summary.e_total} != e_fibre e_base + {contribution}")
    if op.planted_t is not None:
        at_one = [r for r in records if isinstance(r.parameter, Fraction) and r.parameter == 1]
        want = (op.planted_t, _expected_kind(g, op.planted_t))
        got = [(r.nodes_per_fibre, r.fibre_class) for r in at_one]
        if got != [want]:
            errors.append(f"planted fibre at lam=1: want {want}, got {got}")
    elif _squarefree_discriminant(op.pencil):
        if any(r.nodes_per_fibre != 1 or r.fibre_class != FibreKind.IRREDUCIBLE_NODAL
               for r in records):
            errors.append("squarefree discriminant but a fibre is not one-nodal")
        conjugates = sum(r.conjugate_count for r in records)
        if conjugates != 4 * g + 2:
            errors.append(f"conjugates sum to {conjugates}, not {4 * g + 2}")
    return errors


def _build_pencil_euler(rng: random.Random) -> Workload:
    ops = [_pencil_op(rng, g, t) for _ in range(PENCIL_ROUNDS) for g, t in PENCIL_ROUND]
    return Workload("pencil-euler", ops, len(PENCIL_ROUND), check_pencil)


# ---------------------------------------------------------------------------
# locus-ladder
# ---------------------------------------------------------------------------

# One rung per genus 4..8, with g=6 three times and g=7 twice: then the
# median op of a 20 s run is a g=6 rung and the eleventh-slowest a g=7 rung,
# each mid-way in its cluster rather than on the edge between two genera.
LADDER_GENERA = (4, 6, 5, 6, 7, 6, 7, 8)
LADDER_RUNGS = 16
LADDER_PROBES = (Fraction(1, 3), Fraction(-2, 5))  # rational lam for the scalar check


@dataclass(frozen=True)
class LocusOp:
    genus: int
    pencil: Pencil

    @property
    def label(self) -> str:
        return f"g{self.genus}"

    def run(self):
        disc = pencils.pencil_discriminant(self.pencil)
        return disc, factorization.irreducible_factors(disc)


def _locus_op(rng: random.Random, g: int) -> LocusOp:
    n = 2 * g + 2
    while True:
        # integer roots in [-n, n]: 2n distinct values out of 2n + 1
        roots = _roots(rng, 2 * n, n)
        f0, f1 = UniPoly.from_roots(roots[:n]), UniPoly.from_roots(roots[n:])
        if _smooth_at_infinity(f0, f1):
            return LocusOp(g, Pencil(g, f0, f1))


def check_locus(op: LocusOp, result) -> List[str]:
    disc, factors = result
    errors = []
    if disc.degree != 4 * op.genus + 2:
        errors.append(f"deg Disc = {disc.degree}, not {4 * op.genus + 2}")
    product = UniPoly.one()
    for factor, mult in factors:
        product = product * factor ** mult
    if disc.is_zero or product * disc.leading_coefficient != disc:
        errors.append("factors do not multiply back to Disc")
    for lam in LADDER_PROBES:
        scalar = polynomial.discriminant(op.pencil.fibre_at(lam))
        if disc(lam) != scalar:
            errors.append(f"Disc({lam}) = {disc(lam)}, scalar discriminant {scalar}")
    return errors


def _build_locus_ladder(rng: random.Random) -> Workload:
    ops = [_locus_op(rng, g) for _ in range(LADDER_RUNGS) for g in LADDER_GENERA]
    return Workload("locus-ladder", ops, len(LADDER_GENERA), check_locus)


# ---------------------------------------------------------------------------
# curve-census
# ---------------------------------------------------------------------------

CENSUS_GENERA = range(2, 13)
CENSUS_PASSES = 4
# integer roots in [-20, 20]: with denominators up to 6, as construct_nodal
# draws them, one smooth g=12 classify takes 0.4-0.7 s and dominates a run
CENSUS_HEIGHT, CENSUS_DEN = 20, 1


@dataclass(frozen=True)
class CensusOp:
    genus: int
    t: int  # planted node count; g + 1 is the split member
    model: HyperellipticModel
    construct_seed: int

    @property
    def label(self) -> str:
        return f"g{self.genus}-t{self.t}"

    def run(self):
        if self.t > self.genus:
            built = curves.construct_split(self.genus, self.construct_seed)
        else:
            built = curves.construct_nodal(self.genus, self.t, self.construct_seed)
        return built, curves.classify(self.model), curves.singular_points(self.model)


def _node_signature(p: UniPoly):
    """(degree of the multiplicity-2 part, any multiplicity >= 3), by sympy."""
    import sympy

    _, parts = _sympy_poly(p, sympy.Symbol("x")).sqf_list()
    return (sum(f.degree() for f, m in parts if m == 2), any(m >= 3 for _, m in parts))


def check_census(op: CensusOp, result) -> List[str]:
    built, fc, points = result
    g, t = op.genus, op.t
    nodes = g + 1 if t > g else t
    errors = []
    f = built.f
    if built.g != g or f.degree != 2 * g + 2 or f.leading_coefficient != 1:
        errors.append("constructed model is not monic of degree 2g+2")
    elif (signature := _node_signature(f)) != (nodes, False):
        errors.append(f"constructed model has node signature {signature}")
    want = (_expected_kind(g, t), nodes, 0 if t > g else g - t)
    got = (fc.kind, fc.t, fc.geometric_genus)
    if got != want:
        errors.append(f"classify: want {want}, got {got}")
    conjugates = sum(p.conjugates for p in points)
    if conjugates != nodes or any(p.local_type != "node" for p in points):
        errors.append(f"singular points: {conjugates} conjugates, want {nodes} nodes")
    return errors


def _build_curve_census(rng: random.Random) -> Workload:
    ops = []
    for _ in range(CENSUS_PASSES):
        one_pass = []
        for g in CENSUS_GENERA:
            for t in range(g + 2):
                roots = _roots(rng, _planted_root_count(g, t), CENSUS_HEIGHT, CENSUS_DEN)
                model = HyperellipticModel(g, _planted_poly(roots, g, t))
                one_pass.append(CensusOp(g, t, model, rng.randrange(1 << 16)))
        rng.shuffle(one_pass)  # a partial pass is a fair sample of the genera
        ops.extend(one_pass)
    pass_size = len(ops) // CENSUS_PASSES
    return Workload("curve-census", ops, pass_size, check_census)


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChildRun:
    code: int
    stdout: bytes
    stderr: bytes
    maxrss_kib: int


def run_child(argv: list, capture_stderr: bool = False) -> ChildRun:
    """Run one child interpreter to completion and collect its peak RSS."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE if capture_stderr else subprocess.DEVNULL)
    try:
        err = []
        reader = None
        if capture_stderr:
            reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
            reader.start()
        out = proc.stdout.read()
        if reader is not None:
            reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
        if proc.stderr is not None:
            proc.stderr.close()
    return ChildRun(proc.returncode, out, b"".join(err), usage.ru_maxrss)


@dataclass(frozen=True)
class CliOp:
    label: str  # the subcommand
    argv: tuple
    schema: str  # attribute of fibrelab.schemas the stdout must satisfy
    genus: int = 0  # genus of the model or pencil involved; 0 for geography

    def run(self) -> ChildRun:
        return run_child([sys.executable, "-m", "fibrelab", *self.argv])


def _literal(p: UniPoly) -> str:
    return json.dumps(unipoly_to_literal(p))


def _cli_ops(rng: random.Random) -> list:
    g = rng.randint(2, 6)
    construct = CliOp("construct", ("construct", "--genus", str(g), "--nodes",
                                    str(rng.randint(0, g)), "--seed", str(rng.randrange(1000))),
                      "MODEL", g)
    g = rng.randint(2, 6)
    split = CliOp("construct", ("construct", "--genus", str(g), "--kind", "split",
                                "--seed", str(rng.randrange(1000))), "MODEL", g)
    g = rng.randint(2, 4)
    t = rng.randint(0, g + 1)
    model = _planted_poly(_roots(rng, _planted_root_count(g, t), CENSUS_HEIGHT, CENSUS_DEN), g, t)
    classify = CliOp("classify", ("classify", "--genus", str(g), "--f", _literal(model)),
                     "FIBRE_CLASS", g)
    pencil_ops = []
    for t in (None, rng.randint(1, 3)):
        p = _pencil_op(rng, 2, t).pencil
        pencil_ops.append(CliOp("pencil", ("pencil", "--genus", "2", "--f0", _literal(p.f0),
                                           "--f1", _literal(p.f1)), "PENCIL_RUN", 2))
    systems = rng.choice([
        ("systems", "--surface", "P1xP1", "--query", "hyperelliptic-bidegree",
         "--genus", str(rng.randint(2, 12))),
        ("systems", "--surface", "P1xP1", "--query", "severi", "--a", str(rng.randint(2, 5)),
         "--b", str(rng.randint(2, 5)), "--nodes", str(rng.randint(0, 3))),
        ("systems", "--surface", "DelPezzo1", "--query", "anticanonical-dim",
         "--r", str(rng.randint(1, 8))),
    ])
    invariants = rng.choice([
        (("invariants", "hurwitz", "--genus", str(rng.randint(2, 40))), "HURWITZ"),
        (("invariants", "elliptic-c2", "--d", str(rng.randint(1, 9))), "ELLIPTIC"),
    ])
    scan = ("xiao-scan", "--g2", str(rng.randint(0, 2)), "--chi-max", str(rng.randint(2, 4)))
    # two pencils per pass: about a quarter of the ops pay the sympy import,
    # so the slowest ten of a run fall inside the pencil cluster
    return [construct, pencil_ops[0], CliOp("systems", systems, "SYSTEMS"), classify,
            split, pencil_ops[1], CliOp("invariants", *invariants), CliOp("xiao-scan", scan, "SCAN")]


@dataclass
class CliChecker:
    """Exit code 0, schema-valid stdout, byte-identical on every repeat."""

    validators: dict
    seen: dict = field(default_factory=dict)

    def __call__(self, op: CliOp, run: ChildRun) -> List[str]:
        if run.code != 0:
            return [f"exit code {run.code}"]
        first = self.seen.setdefault(op.argv, run.stdout)
        errors = [] if first == run.stdout else ["stdout differs from an earlier run"]
        try:
            obj = json.loads(run.stdout)
        except ValueError as exc:
            return errors + [f"stdout is not JSON: {exc}"]
        errors += [e.message for e in self.validators[op.schema].iter_errors(obj)]
        return errors


def _build_cli_cold(rng: random.Random) -> Workload:
    import jsonschema
    from fibrelab import schemas

    ops = _cli_ops(rng)
    validators = {op.schema: jsonschema.Draft202012Validator(getattr(schemas, op.schema))
                  for op in ops}
    return Workload("cli-cold", ops, len(ops), CliChecker(validators), in_process=False)


# ---------------------------------------------------------------------------


_MAKERS = {
    "pencil-euler": _build_pencil_euler,
    "locus-ladder": _build_locus_ladder,
    "curve-census": _build_curve_census,
    "cli-cold": _build_cli_cold,
}


def build(name: str, seed: int) -> Workload:
    """Set the workload up: sympy, and the inputs for ``seed``."""
    # the one deferred import in the package; users of the pencil entry
    # points pay it once per process, so it belongs to set-up (input
    # generation needs sympy too)
    start = time.perf_counter()
    factorization.irreducible_factors(UniPoly.from_roots([Fraction(1, 2), 3]))
    sympy_import_s = time.perf_counter() - start
    wl = _MAKERS[name](random.Random(f"{name}:{seed}"))
    wl.sympy_import_s = sympy_import_s
    return wl
