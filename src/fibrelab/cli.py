"""Command-line front end.

Machine-readable output only on stdout (JSON, or CSV for scans); notes and
warnings on stderr.  Exit codes: 0 success, 1 domain error (reported as
``{"error": ...}``), 2 malformed input.  Identical invocations produce
byte-identical output.  Argparse picks the handler; :func:`main` writes its payload.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import curves, geography, linear_systems, pencils
from .polynomial import LiteralError, integer_from_literal

_SIGN_NOTE = ("note: singular-fibre contributions enter as e(F_s) - e(F), "
              "nonnegative and positive for nodal fibres; some printed forms "
              "of the fibre-sum formula carry the opposite sign.")


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")


def _load_params_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, not JSON, or too many digits
        raise LiteralError(f"cannot read parameter file {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise LiteralError("parameter file must hold a JSON object")
    return obj


def _read_parameters(args, from_dict, genus_key: str, *json_flags: str):
    """``from_dict`` of the ``--file`` object, or of the same keys built from the flags.

    ``--genus`` is passed as given, to the integer reader; the other flags hold JSON text.
    """
    if args.file:
        params = _load_params_file(args.file)
    else:
        params = {} if args.genus is None else {genus_key: args.genus}
        for name in json_flags:
            if (text := getattr(args, name)) is not None:
                try:
                    params[name] = json.loads(text)
                except ValueError as exc:
                    raise LiteralError(f"polynomial literal is not valid JSON: {exc}") from exc
    try:
        return from_dict(params)
    except KeyError as exc:
        raise LiteralError(f"{args.command} parameters lack {exc} (flags --genus "
                           f"--{' --'.join(json_flags)}, or --file)") from None


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _run_construct(args) -> dict:
    if args.kind == "split":
        return curves.construct_split(args.genus, args.seed).to_dict()
    return curves.construct_nodal(args.genus, args.nodes, args.seed).to_dict()


def _run_classify(args) -> dict:
    model = _read_parameters(args, curves.HyperellipticModel.from_dict, "genus", "f")
    return curves.classify(model).to_dict()


def _run_pencil(args) -> dict:
    pencil = _read_parameters(args, pencils.Pencil.from_dict, "g", "f0", "f1")
    summary = pencils.total_space_euler(pencil)
    print(_SIGN_NOTE, file=sys.stderr)
    if not summary.euler_exact:
        print("warning: a fibre has a worse-than-node singularity; "
              "e_total is a certified lower bound only.", file=sys.stderr)
    return {"pencil": pencil.to_dict(), "summary": summary.to_dict()}


def _bidegree(args) -> linear_systems.Bidegree:
    return linear_systems.Bidegree(args.a, args.b)


def _hirzebruch(args) -> linear_systems.HirzebruchClass:
    return linear_systems.HirzebruchClass(args.e, args.a, args.b)


def _hyperelliptic_bidegree(args) -> dict:
    d = linear_systems.hyperelliptic_bidegree(args.genus)
    return {"a": d.a, "b": d.b}


# flags every query on a surface needs, checked before the query is looked up
_SURFACE_FLAGS = {"F_e": ("e",)}

# (surface, query) -> (flags the query needs, builder of the result)
_SYSTEMS_QUERIES = {
    ("P1xP1", "h0"): (("a", "b"), lambda args: linear_systems.h0_p1xp1(_bidegree(args))),
    ("P1xP1", "genus"): (
        ("a", "b"), lambda args: linear_systems.arithmetic_genus_p1xp1(_bidegree(args))),
    ("P1xP1", "severi"): (
        ("a", "b", "nodes"), lambda args: linear_systems.severi_dimension(
            linear_systems.SeveriSpec(_bidegree(args), args.nodes))),
    ("P1xP1", "prescribed-nodes"): (
        ("genus", "nodes"),
        lambda args: linear_systems.prescribed_nodes_dimension(args.genus, args.nodes)),
    ("P1xP1", "hyperelliptic-bidegree"): (("genus",), _hyperelliptic_bidegree),
    ("F_e", "genus"): (
        ("a", "b"), lambda args: linear_systems.hirzebruch_genus(_hirzebruch(args))),
    ("F_e", "intersect"): (
        ("a", "b", "a2", "b2"), lambda args: linear_systems.hirzebruch_intersection(
            _hirzebruch(args), linear_systems.HirzebruchClass(args.e, args.a2, args.b2))),
    ("F_e", "effective"): (
        ("a", "b"), lambda args: linear_systems.hirzebruch_effective(_hirzebruch(args))),
    ("DelPezzo1", "anticanonical-dim"): (
        ("r",), lambda args: linear_systems.delpezzo_anticanonical_dim(args.r)),
}


def _run_systems(args) -> dict:
    def need(*names):
        missing = [n for n in names if getattr(args, n) is None]
        if missing:
            raise LiteralError(
                f"query {args.query!r} needs --{', --'.join(m.replace('_', '-') for m in missing)}")

    surface, query = args.surface, args.query
    need(*_SURFACE_FLAGS.get(surface, ()))
    try:
        flags, build = _SYSTEMS_QUERIES[surface, query]
    except KeyError:
        raise LiteralError(f"unknown {surface} query {query!r}") from None
    need(*flags)
    return {"surface": surface, "query": query, "result": build(args)}


def _invariants_from_args(args) -> geography.SurfaceInvariants:
    return geography.SurfaceInvariants(
        chi=args.chi, q=args.q, p_g=args.pg, K2=args.k2, e=args.e,
        g1=args.g1, g2=args.g2, epsilon=args.epsilon, d=getattr(args, "d", None))


def _run_noether_complete(args) -> dict:
    return geography.noether_complete(_invariants_from_args(args)).to_dict()


def _run_blow_up(args) -> dict:
    return geography.blow_up(_invariants_from_args(args), args.n).to_dict()


def _run_chi_bounds(args) -> dict:
    return geography.fibration_chi_bounds(_invariants_from_args(args)).to_dict()


def _run_xiao_validate(args) -> dict:
    case = geography.XiaoCase.CASE_I if args.case == "i" else geography.XiaoCase.CASE_II
    return geography.xiao_validate(_invariants_from_args(args), case).to_dict()


def _run_general_type(args) -> dict:
    return geography.general_type_checks(_invariants_from_args(args), args.minimal).to_dict()


def _run_elliptic_c2(args) -> dict:
    c2, chi = geography.elliptic_c2(args.d)
    return {"c2": c2, "chi": chi}


def _run_slope(args) -> dict:
    nu, verdict = geography.kodaira_slope(args.k2, args.c2)
    return {"slope": geography.json_number(nu), "verdict": verdict.value}


def _run_xiao_scan(args) -> dict | None:
    rows = geography.xiao_admissible_scan(args.g2, args.chi_max)  # checks before any output
    csv = args.format == "csv"
    if csv:
        sys.stdout.write(geography.CSV_HEADER + "\n")
    collected, saw_eps0 = [], False
    for row in rows:
        saw_eps0 = saw_eps0 or "eps0" in row.flags
        if csv:  # streamed as computed
            sys.stdout.write(row.csv_row() + "\n")
        else:
            collected.append(row.to_dict())
    if saw_eps0:
        print("note: rows flagged eps0 carry a weaker existence guarantee.",
              file=sys.stderr)
    return None if csv else {"g2": args.g2, "chi_max": args.chi_max, "rows": collected}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibrelab",
        description="Exact constructions of nodal hyperelliptic fibres, pencil "
                    "simulations, and surface-geography checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a seeded nodal or split model")
    p.add_argument("--genus", type=integer_from_literal, required=True)
    p.add_argument("--kind", choices=["nodal", "split"], default="nodal")
    p.add_argument("--nodes", type=integer_from_literal, default=0, help="node count (nodal kind)")
    p.add_argument("--seed", type=integer_from_literal, default=0)
    p.set_defaults(handler=_run_construct)

    p = sub.add_parser("classify", help="classify a model y^2 = f(x)")
    p.add_argument("--genus")
    p.add_argument("--f", help="polynomial literal, ascending coefficients")
    p.add_argument("--file", help="JSON file with {genus, f}")
    p.set_defaults(handler=_run_classify)

    p = sub.add_parser("pencil", help="simulate a pencil (1-lam) f0 + lam f1")
    p.add_argument("--genus")
    p.add_argument("--f0")
    p.add_argument("--f1")
    p.add_argument("--file", help="JSON file with {g, f0, f1}")
    p.set_defaults(handler=_run_pencil)

    p = sub.add_parser("systems", help="linear-system dimension/genus calculators")
    p.add_argument("--surface", choices=["P1xP1", "F_e", "DelPezzo1"], required=True)
    p.add_argument("--query", required=True)
    for name in ("a", "b", "a2", "b2", "e", "nodes", "genus", "r"):
        p.add_argument(f"--{name}", type=integer_from_literal)
    p.set_defaults(handler=_run_systems)

    p = sub.add_parser("invariants", help="surface-invariant identities and bounds")
    ops = p.add_subparsers(dest="operation", required=True)

    def add_inv_flags(sp):
        for name in ("chi", "q", "pg", "k2", "e", "g1", "g2", "epsilon"):
            sp.add_argument(f"--{name}", type=integer_from_literal)

    sp = ops.add_parser("noether-complete")
    add_inv_flags(sp)
    sp.add_argument("--d", type=integer_from_literal)
    sp.set_defaults(handler=_run_noether_complete)
    sp = ops.add_parser("blow-up")
    add_inv_flags(sp)
    sp.add_argument("--n", type=integer_from_literal, default=1)
    sp.set_defaults(handler=_run_blow_up)
    sp = ops.add_parser("chi-bounds")
    add_inv_flags(sp)
    sp.set_defaults(handler=_run_chi_bounds)
    sp = ops.add_parser("xiao-validate")
    add_inv_flags(sp)
    sp.add_argument("--case", choices=["i", "ii"], default="ii")
    sp.set_defaults(handler=_run_xiao_validate)
    sp = ops.add_parser("general-type")
    add_inv_flags(sp)
    sp.add_argument("--minimal", action="store_true")
    sp.set_defaults(handler=_run_general_type)
    sp = ops.add_parser("elliptic-c2")
    sp.add_argument("--d", type=integer_from_literal, required=True)
    sp.set_defaults(handler=_run_elliptic_c2)
    sp = ops.add_parser("slope")
    sp.add_argument("--k2", type=integer_from_literal, required=True)
    sp.add_argument("--c2", type=integer_from_literal, required=True)
    sp.set_defaults(handler=_run_slope)
    sp = ops.add_parser("hurwitz")
    sp.add_argument("--genus", type=integer_from_literal, required=True)
    sp.set_defaults(handler=lambda args: {"bound": geography.hurwitz_bound(args.genus)})

    p = sub.add_parser("xiao-scan", help="stream admissible genus-2 (chi, eps, K2) tuples")
    p.add_argument("--g2", type=integer_from_literal, required=True)
    p.add_argument("--chi-max", dest="chi_max", type=integer_from_literal, required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(handler=_run_xiao_scan)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload = args.handler(args)
    except LiteralError as exc:
        _emit({"error": str(exc)})
        return 2
    except ValueError as exc:
        _emit({"error": str(exc)})
        return 1
    if payload is not None:
        _emit(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
