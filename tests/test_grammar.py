"""One grammar for integer and rational tokens, whichever way they come in.

Each token gets the same verdict, and when accepted the same value, from the
reader in ``fibrelab.polynomial``, from the ``UniPoly`` constructor,
``Pencil.fibre_at`` and ``j_invariant`` (rational tokens), from the CLI flags,
the experiment scripts' flags and a ``--file`` parameter object.  A rejection
on the command line exits 2, and an integer flag's rejection is the reader's
own message.
"""

import importlib.util
import json
import pathlib
import sys
from fractions import Fraction
from unittest import mock

import jsonschema
import pytest

from fibrelab import schemas
from fibrelab.cli import main
from fibrelab.curves import j_invariant
from fibrelab.pencils import seeded_pencil
from fibrelab.polynomial import (
    LiteralError,
    UniPoly,
    integer_from_literal,
    rational_from_literal,
)

# (token as a JSON value, its integer value, its rational value); None rejects
TOKENS = [
    (2, 2, Fraction(2)),
    ("2", 2, Fraction(2)),
    ("-0", 0, Fraction(0)),
    ("007", 7, Fraction(7)),
    (" 2 ", None, None),
    (" ٢ ", None, None),
    ("٢", None, None),
    ("1_0", None, None),
    ("+2", None, None),
    ("2.0", None, None),
    (True, None, None),
    ("1/2", None, Fraction(1, 2)),
    ("1/0", None, None),
    ("1.5", None, None),
]
IDS = [json.dumps(tok) for tok, _, _ in TOKENS]

PENCIL = seeded_pencil(2, 0)
# library entry points that take one rational value
RATIONAL_READERS = {
    "UniPoly": lambda t: UniPoly((t, 1)).coefficients[0],
    "fibre_at": PENCIL.fibre_at,
    "j_invariant a": lambda t: j_invariant(t, 1),
    "j_invariant b": lambda t: j_invariant(1, t),
}


SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def script_main(name):
    """The ``main`` of ``scripts/<name>.py`` as a function of its argv, run in this process."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def run_main(argv):
        with mock.patch.object(sys, "argv", [f"{name}.py", *argv]):
            module.main()
    return run_main


SCRIPT_MAINS = {name: script_main(name) for name in ("pencil_census", "geography_scan")}


def run(capsys, argv, entry=main):
    """Exit code, stdout and stderr of the CLI or a script, argparse's own exits included."""
    try:
        code = entry(argv)
    except SystemExit as exc:
        code = exc.code
    return code, *capsys.readouterr()


def flag_text(tok) -> str:
    """A token as command-line text: strings as they are, JSON values as JSON."""
    return tok if isinstance(tok, str) else json.dumps(tok)


def sextic(constant) -> list:
    return [constant, "0", "0", "0", "0", "0", "1"]


def run_file(capsys, tmp_path, command, params):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    return run(capsys, [command, "--file", str(path)])


def assert_rejected(outcome, *, usage_error=None):
    """Exit 2 with one ``{"error": ...}`` line, or with ``usage_error`` on stderr only."""
    code, out, err = outcome
    assert code == 2
    if usage_error is None:
        jsonschema.validate(json.loads(out), schemas.ERROR)
    else:
        assert out == "" and usage_error in err


@pytest.mark.parametrize("tok,value,_", TOKENS, ids=IDS)
def test_integer_token_reads_the_same_on_every_route(capsys, tmp_path, tok, value, _):
    # genus v as y^2 = x^(2v+2) - 1; v = 0 is a domain error on both sides
    v = 2 if value is None else value
    f = ["-1"] + ["0"] * (2 * v + 1) + ["1"]
    # route -> (entry point, argv)
    routes = {
        "classify flags": (main, ["classify", "--genus", flag_text(tok), "--f", json.dumps(f)]),
        "systems --a": (main, ["systems", "--surface", "P1xP1", "--query", "h0",
                               "--a", flag_text(tok), "--b", "3"]),
        "construct --seed": (main, ["construct", "--genus", "2", "--seed", flag_text(tok)]),
        "pencil_census --genus": (SCRIPT_MAINS["pencil_census"],
                                  ["--genus", flag_text(tok), "--count", "1"]),
        "geography_scan --g2": (SCRIPT_MAINS["geography_scan"],
                                ["--g2", flag_text(tok), "--chi-max", "8"]),
    }
    file_params = {"genus": tok, "f": f}
    if value is None:
        with pytest.raises(LiteralError):
            integer_from_literal(tok)
        assert_rejected(run(capsys, routes.pop("classify flags")[1]))
        for entry, argv in routes.values():
            assert_rejected(run(capsys, argv, entry), usage_error=(
                f"bad integer {flag_text(tok)!r}: expected an integer"))
        assert_rejected(run_file(capsys, tmp_path, "classify", file_params))
        return
    assert integer_from_literal(tok) == value
    canonical = {name: run(capsys, [str(value) if a == flag_text(tok) else a for a in argv], entry)
                 for name, (entry, argv) in routes.items()}
    for name, (entry, argv) in routes.items():
        assert run(capsys, argv, entry) == canonical[name], name
    assert run_file(capsys, tmp_path, "classify", file_params) == canonical["classify flags"]


@pytest.mark.parametrize("tok,_,value", TOKENS, ids=IDS)
def test_rational_token_reads_the_same_on_every_route(capsys, tmp_path, tok, _, value):
    flags = ["classify", "--genus", "2", "--f", json.dumps(sextic(tok))]
    file_params = {"genus": 2, "f": sextic(tok)}
    if value is None:
        for read in (rational_from_literal, *RATIONAL_READERS.values()):
            with pytest.raises(LiteralError):
                read(tok)
        assert_rejected(run(capsys, flags))
        assert_rejected(run_file(capsys, tmp_path, "classify", file_params))
        return
    assert rational_from_literal(tok) == value
    for name, read in RATIONAL_READERS.items():
        assert read(tok) == read(value), name
    canonical = run(capsys, ["classify", "--genus", "2", "--f", json.dumps(sextic(str(value)))])
    assert run(capsys, flags) == canonical
    assert run_file(capsys, tmp_path, "classify", file_params) == canonical


@pytest.mark.parametrize("name", RATIONAL_READERS)
def test_a_float_is_refused_as_inexact(name):
    with pytest.raises(TypeError):
        RATIONAL_READERS[name](0.5)


def test_pencil_genus_flag_uses_the_same_reader(capsys):
    demo = ["--f0", json.dumps(sextic("-1")), "--f1", '["0","-1","0","0","0","0","1"]']
    assert_rejected(run(capsys, ["pencil", "--genus", "1_0", *demo]))
    assert run(capsys, ["pencil", "--genus", "02", *demo]) == run(
        capsys, ["pencil", "--genus", "2", *demo])



@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this interpreter converts integers of any length")
def test_more_digits_than_the_interpreter_converts_exits_2(capsys, tmp_path):
    # past sys.get_int_max_str_digits() both int() and json refuse a number
    digits = "9" * (sys.get_int_max_str_digits() + 1)
    number = "[" + digits + ",0,0,0,0,0,1]"
    path = tmp_path / "params.json"
    path.write_text('{"genus": 2, "f": ' + number + "}")
    for argv in (["classify", "--genus", digits, "--f", json.dumps(sextic("-1"))],
                 ["classify", "--genus", "2", "--f", json.dumps(sextic(digits))],
                 ["classify", "--genus", "2", "--f", number],
                 ["classify", "--file", str(path)]):
        assert_rejected(run(capsys, argv))
