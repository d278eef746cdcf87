"""Command-line front end.

Machine-readable output only on stdout (JSON, or CSV for scans); notes and
warnings on stderr.  Exit codes: 0 success, 1 domain error (reported as
``{"error": ...}``), 2 malformed input, and 141 (128 + SIGPIPE), with nothing
on stderr, when the reader of stdout stops early.  Identical invocations produce
byte-identical output.  Argparse picks the handler; :func:`main` writes its payload.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import curves, geography, linear_systems, pencils
from .linear_systems import Bidegree, HirzebruchClass, SeveriSpec
from .polynomial import LiteralError, integer_from_literal

_SIGN_NOTE = ("note: singular-fibre contributions enter as e(F_s) - e(F), "
              "nonnegative and positive for nodal fibres; some printed forms "
              "of the fibre-sum formula carry the opposite sign.")


def _emit(obj) -> None:
    """One JSON line.  Every input has been read by now, so an int of any length
    prints: the int-to-str digit limit is lifted while the line is written."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: none, as before Python 3.10.7
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        text = json.dumps(obj)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    sys.stdout.write(text + "\n")


def integer_argument(text: str) -> int:
    """The argparse type of every integer flag: the integer grammar, refused in its own words."""
    try:
        return integer_from_literal(text)
    except LiteralError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _load_params_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
    # ValueError: not UTF-8, not JSON, or too many digits; RecursionError: nested too deeply
    except (OSError, ValueError, RecursionError) as exc:
        raise LiteralError(f"cannot read parameter file {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise LiteralError("parameter file must hold a JSON object")
    return obj


def _refuse_unread(reader: str, unread: list) -> None:
    """Exit 2 naming each flag or key in ``unread``, given to ``reader`` but not read by it."""
    if unread:
        raise LiteralError(f"{reader} does not read {', '.join(unread)}")


def _given(args, names) -> list:
    """``--name`` for each of ``names`` whose flag was given."""
    return [f"--{n}" for n in names if getattr(args, n) is not None]


def _read_parameters(args, from_dict, genus_key: str, *json_flags: str):
    """``from_dict`` of the ``--file`` object, or of the same keys built from the flags.

    ``--genus`` is passed as given, to the integer reader; the other flags hold JSON text.
    """
    if args.file:
        _refuse_unread(f"{args.command} --file", _given(args, ("genus", *json_flags)))
        params = _load_params_file(args.file)
        _refuse_unread(f"{args.command} --file",
                       [f"key {k!r}" for k in params if k not in (genus_key, *json_flags)])
    else:
        params = {} if args.genus is None else {genus_key: args.genus}
        for name in json_flags:
            if (text := getattr(args, name)) is not None:
                try:
                    params[name] = json.loads(text)
                except (ValueError, RecursionError) as exc:  # not JSON, or nested too deeply
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
        _refuse_unread("construct --kind split", _given(args, ["nodes"]))
        return curves.construct_split(args.genus, args.seed).to_dict()
    return curves.construct_nodal(args.genus, args.nodes or 0, args.seed).to_dict()


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


# (surface, query) -> (the flags the query reads, function of their values in that order)
_SYSTEMS_QUERIES = {
    ("P1xP1", "h0"): (("a", "b"), lambda a, b: linear_systems.h0_p1xp1(Bidegree(a, b))),
    ("P1xP1", "genus"): (
        ("a", "b"), lambda a, b: linear_systems.arithmetic_genus_p1xp1(Bidegree(a, b))),
    ("P1xP1", "severi"): (
        ("a", "b", "nodes"),
        lambda a, b, nodes: linear_systems.severi_dimension(SeveriSpec(Bidegree(a, b), nodes))),
    ("P1xP1", "prescribed-nodes"): (("genus", "nodes"), linear_systems.prescribed_nodes_dimension),
    ("P1xP1", "hyperelliptic-bidegree"): (
        ("genus",), lambda genus: dataclasses.asdict(linear_systems.hyperelliptic_bidegree(genus))),
    ("F_e", "genus"): (
        ("e", "a", "b"), lambda e, a, b: linear_systems.hirzebruch_genus(HirzebruchClass(e, a, b))),
    ("F_e", "intersect"): (
        ("e", "a", "b", "a2", "b2"), lambda e, a, b, a2, b2: linear_systems.hirzebruch_intersection(
            HirzebruchClass(e, a, b), HirzebruchClass(e, a2, b2))),
    ("F_e", "effective"): (
        ("e", "a", "b"),
        lambda e, a, b: linear_systems.hirzebruch_effective(HirzebruchClass(e, a, b))),
    ("DelPezzo1", "anticanonical-dim"): (("r",), linear_systems.delpezzo_anticanonical_dim),
}

# the surfaces, and every flag of the systems subcommand, in order of first use in the table
SYSTEMS_SURFACES = tuple(dict.fromkeys(surface for surface, _ in _SYSTEMS_QUERIES))
_SYSTEMS_FLAGS = tuple(dict.fromkeys(n for flags, _ in _SYSTEMS_QUERIES.values() for n in flags))


def _run_systems(args) -> dict:
    surface, query = args.surface, args.query
    try:
        flags, function = _SYSTEMS_QUERIES[surface, query]
    except KeyError:
        raise LiteralError(f"unknown {surface} query {query!r}") from None
    values = [getattr(args, n) for n in flags]
    missing = [f"--{n}" for n, v in zip(flags, values) if v is None]
    if missing:
        raise LiteralError(f"query {query!r} needs {', '.join(missing)}")
    _refuse_unread(f"query {query!r}", _given(args, [n for n in _SYSTEMS_FLAGS if n not in flags]))
    return {"surface": surface, "query": query, "result": function(*values)}


def _invariants_from_args(args) -> geography.SurfaceInvariants:
    flag = vars(args).get  # a flag the operation does not declare reads as None
    return geography.SurfaceInvariants(
        chi=flag("chi"), q=flag("q"), p_g=flag("pg"), K2=flag("k2"), e=flag("e"),
        g1=flag("g1"), g2=flag("g2"), epsilon=flag("epsilon"), d=flag("d"))


# the integer invariant flags an operation reads
_NUMBERS = ("chi", "q", "pg", "k2", "e")
_FIBRATION = (*_NUMBERS, "g1", "g2")
_EVERY = (*_FIBRATION, "epsilon")
_REQUIRED = {"type": integer_argument, "required": True}

# operation -> (the invariant flags it reads, its other flags as argparse keywords,
#               function of the parsed arguments that returns the payload), in help order
_INVARIANTS_OPERATIONS = {
    "noether-complete": ((*_EVERY, "d"), {}, lambda args: geography.noether_complete(
        _invariants_from_args(args)).to_dict()),
    "blow-up": (_EVERY, {"n": {"type": integer_argument, "default": 1}},
                lambda args: geography.blow_up(_invariants_from_args(args), args.n).to_dict()),
    "chi-bounds": (_FIBRATION, {}, lambda args: geography.fibration_chi_bounds(
        _invariants_from_args(args)).to_dict()),
    "xiao-validate": (_EVERY, {"case": {"choices": ["i", "ii"], "default": "ii"}},
                      lambda args: geography.xiao_validate(
                          _invariants_from_args(args), f"case_{args.case}").to_dict()),
    "general-type": (_NUMBERS, {"minimal": {"action": "store_true"}},
                     lambda args: geography.general_type_checks(
                         _invariants_from_args(args), args.minimal).to_dict()),
    "elliptic-c2": ((), {"d": _REQUIRED},
                    lambda args: dict(zip(("c2", "chi"), geography.elliptic_c2(args.d)))),
    "slope": ((), {"k2": _REQUIRED, "c2": _REQUIRED}, lambda args: (
        lambda nu, verdict: {"slope": geography.json_number(nu), "verdict": verdict.value})(
            *geography.kodaira_slope(args.k2, args.c2))),
    "hurwitz": ((), {"genus": _REQUIRED},
                lambda args: {"bound": geography.hurwitz_bound(args.genus)}),
}


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
    p.add_argument("--genus", type=integer_argument, required=True)
    p.add_argument("--kind", choices=["nodal", "split"], default="nodal")
    p.add_argument("--nodes", type=integer_argument, help="node count (nodal kind)")
    p.add_argument("--seed", type=integer_argument, default=0)
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
    p.add_argument("--surface", choices=SYSTEMS_SURFACES, required=True)
    p.add_argument("--query", required=True)
    for name in _SYSTEMS_FLAGS:
        p.add_argument(f"--{name}", type=integer_argument)
    p.set_defaults(handler=_run_systems)

    p = sub.add_parser("invariants", help="surface-invariant identities and bounds")
    ops = p.add_subparsers(dest="operation", required=True)

    for operation, (flags, options, function) in _INVARIANTS_OPERATIONS.items():
        sp = ops.add_parser(operation)
        for name in flags:
            sp.add_argument(f"--{name}", type=integer_argument)
        for name, keywords in options.items():
            sp.add_argument(f"--{name}", **keywords)
        sp.set_defaults(handler=function)

    p = sub.add_parser("xiao-scan", help="stream admissible genus-2 (chi, eps, K2) tuples")
    p.add_argument("--g2", type=integer_argument, required=True)
    p.add_argument("--chi-max", dest="chi_max", type=integer_argument, required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(handler=_run_xiao_scan)

    return parser


def stdout_filter(run) -> int | None:
    """``run()``'s exit status once stdout is flushed, or 141 (128 + SIGPIPE), with
    nothing on stderr, when the reader of stdout stops early, as ``head`` does."""
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:  # end as a filter killed by SIGPIPE does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    def run() -> int:
        try:
            payload, code = args.handler(args), 0
        except LiteralError as exc:
            payload, code = {"error": str(exc)}, 2
        except ValueError as exc:
            payload, code = {"error": str(exc)}, 1
        if payload is not None:
            _emit(payload)
        return code

    return stdout_filter(run)


if __name__ == "__main__":
    sys.exit(main())
