import copy
import dataclasses
import inspect
import itertools
import json
import pathlib
import subprocess
import sys

import jsonschema
import pytest

from fibrelab import linear_systems as ls
from fibrelab import schemas
from fibrelab.cli import _INVARIANTS_OPERATIONS, _SYSTEMS_QUERIES
from cli_examples import DEMO_F0, DEMO_F1, ERROR_EXAMPLES, EXAMPLES

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_cli(argv, env_extra=None):
    import os
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "fibrelab", *argv],
                          capture_output=True, env=env)


@pytest.mark.parametrize("name,argv,schema_name,fmt", EXAMPLES,
                         ids=[e[0] for e in EXAMPLES])
def test_documented_example_matches_golden_and_schema(name, argv, schema_name, fmt):
    proc = run_cli(argv)
    assert proc.returncode == 0, proc.stderr.decode()
    golden = (GOLDEN / f"{name}.{'csv' if fmt == 'csv' else 'json'}").read_bytes()
    assert proc.stdout == golden
    if fmt == "json":
        payload = json.loads(proc.stdout)
        if schema_name:
            jsonschema.validate(payload, getattr(schemas, schema_name))
    else:
        lines = proc.stdout.decode().splitlines()
        assert lines[0] == "chi,epsilon,k2_min,k2_max,flags"
        assert all(len(line.split(",")) == 5 for line in lines[1:])


def _object_paths(payload, path=()):
    """The path to every JSON object in ``payload``; a ``systems`` result is free-form."""
    if isinstance(payload, dict):
        yield path
        for key, value in payload.items():
            if key != "result":
                yield from _object_paths(value, (*path, key))
    elif isinstance(payload, list):
        for i, item in enumerate(payload):
            yield from _object_paths(item, (*path, i))


def _at(payload, path):
    for step in path:
        payload = payload[step]
    return payload


_SCHEMA_GOLDENS = [(name, schema_name) for name, _, schema_name, fmt in EXAMPLES
                   if fmt == "json"]


@pytest.mark.parametrize("name,schema_name", _SCHEMA_GOLDENS, ids=[n for n, _ in _SCHEMA_GOLDENS])
def test_published_schemas_are_closed(name, schema_name):
    payload = json.loads((GOLDEN / f"{name}.json").read_bytes())
    validator = jsonschema.Draft202012Validator(getattr(schemas, schema_name))
    assert validator.is_valid(payload)
    for path in _object_paths(payload):
        edited = copy.deepcopy(payload)
        _at(edited, path)["unknown"] = 0
        assert not validator.is_valid(edited), path
        for key in _at(payload, path):
            edited = copy.deepcopy(payload)
            del _at(edited, path)[key]
            assert not validator.is_valid(edited), (path, key)


def test_a_fibre_record_names_one_of_param_and_minpoly_and_a_singular_class():
    payload = json.loads((GOLDEN / "pencil_demo.json").read_bytes())
    validator = jsonschema.Draft202012Validator(schemas.PENCIL_RUN)
    rational, orbit = payload["summary"]["fibres"]
    assert "param" in rational and "minpoly" in orbit
    for record in ({**rational, "minpoly": orbit["minpoly"]},  # both
                   {**orbit, "param": rational["param"]},      # both
                   {k: v for k, v in rational.items() if k != "param"},  # neither
                   {**rational, "class": "Smooth"}):  # a record sits at a root of Disc
        edited = copy.deepcopy(payload)
        edited["summary"]["fibres"][0] = record
        assert not validator.is_valid(edited), record


@pytest.mark.parametrize("name,argv,expected_code", ERROR_EXAMPLES,
                         ids=[e[0] for e in ERROR_EXAMPLES])
def test_error_paths(name, argv, expected_code):
    proc = run_cli(argv)
    assert proc.returncode == expected_code
    payload = json.loads(proc.stdout)
    jsonschema.validate(payload, schemas.ERROR)


def test_the_cli_does_not_import_the_schemas():
    proc = subprocess.run([sys.executable, "-c", "import sys; from fibrelab.cli import main; "
                           "main(['invariants', 'hurwitz', '--genus', '3']); "
                           "assert 'fibrelab.schemas' not in sys.modules"], capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()


def test_usage_error_exits_2():
    proc = run_cli(["classify", "--genus", "two", "--f", "[1]"])
    assert proc.returncode == 2


def test_pencil_proportional_error_message():
    proc = run_cli(["pencil", "--genus", "2",
                    "--f0", '["-1","0","0","0","0","0","1"]',
                    "--f1", '["-2","0","0","0","0","0","2"]'])
    assert json.loads(proc.stdout) == {"error": "pencil is non-constant precondition violated"}


def test_warnings_go_to_stderr_not_stdout():
    proc = run_cli(["pencil", "--genus", "2",
                    "--f0", '["-1","0","0","0","0","0","1"]',
                    "--f1", '["0","-1","0","0","0","0","1"]'])
    assert proc.returncode == 0
    assert b"note:" in proc.stderr
    assert b"note:" not in proc.stdout
    json.loads(proc.stdout)  # stdout stays machine-readable


def test_construct_output_does_not_depend_on_the_environment():
    argv = ["construct", "--genus", "2", "--nodes", "1", "--seed", "7"]
    plain = run_cli(argv)
    with_env = run_cli(argv, env_extra={"FIBRELAB_SEED": "123"})
    assert plain.returncode == with_env.returncode == 0
    assert with_env.stdout == plain.stdout


def test_classify_from_parameter_file(tmp_path):
    params = {"genus": 2, "f": ["-1", "0", "0", "0", "0", "0", "1"]}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(params))
    from_file = run_cli(["classify", "--file", str(path)])
    inline = run_cli(["classify", "--genus", "2", "--f", json.dumps(params["f"])])
    assert from_file.returncode == 0
    assert from_file.stdout == inline.stdout


# (command, genus key, the other keys of its parameter file, the inline flags)
_PARAMETER_FILES = {
    "classify": ("genus", {"f": json.loads(DEMO_F0)}, ["--f", DEMO_F0]),
    "pencil": ("g", {"f0": json.loads(DEMO_F0), "f1": json.loads(DEMO_F1)},
               ["--f0", DEMO_F0, "--f1", DEMO_F1]),
}


@pytest.mark.parametrize("command,genus", [("classify", "2"), ("pencil", 2), ("pencil", "2")],
                         ids=["classify-string", "pencil-integer", "pencil-string"])
def test_parameter_file_matches_inline_flags(tmp_path, command, genus):
    key, params, flags = _PARAMETER_FILES[command]
    path = tmp_path / "params.json"
    path.write_text(json.dumps({key: genus, **params}))
    from_file = run_cli([command, "--file", str(path)])
    inline = run_cli([command, "--genus", "2", *flags])
    assert from_file.returncode == 0
    assert from_file.stdout == inline.stdout


@pytest.mark.parametrize("genus", [2.9, 2.0, True, "two", "2x", "2.9"],
                         ids=["float", "integral-float", "bool", "word", "suffix", "float-string"])
@pytest.mark.parametrize("command", sorted(_PARAMETER_FILES))
def test_parameter_file_genus_must_be_an_integer(tmp_path, capsys, command, genus):
    from fibrelab.cli import main
    key, params, _ = _PARAMETER_FILES[command]
    path = tmp_path / "params.json"
    path.write_text(json.dumps({key: genus, **params}))
    assert main([command, "--file", str(path)]) == 2
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, schemas.ERROR)
    assert "expected an integer" in payload["error"]


@pytest.mark.parametrize("command", sorted(_PARAMETER_FILES))
def test_parameter_file_excludes_the_model_flags(tmp_path, capsys, command):
    from fibrelab.cli import main
    key, params, flags = _PARAMETER_FILES[command]
    path = tmp_path / "params.json"
    path.write_text(json.dumps({key: 2, **params}))
    names = ["--genus", *flags[::2]]
    assert main([command, "--file", str(path), "--genus", "7", *flags]) == 2
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, schemas.ERROR)
    assert payload == {"error": f"{command} --file does not read {', '.join(names)}"}
    assert main([command, "--file", str(path), flags[0], '["1","1"]']) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": f"{command} --file does not read {flags[0]}"}


@pytest.mark.parametrize("command", sorted(_PARAMETER_FILES))
def test_parameter_file_refuses_unknown_keys(tmp_path, capsys, command):
    from fibrelab.cli import main
    key, params, _ = _PARAMETER_FILES[command]
    path = tmp_path / "params.json"
    path.write_text(json.dumps({key: 2, **params, "extra": 1}))
    assert main([command, "--file", str(path)]) == 2
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, schemas.ERROR)
    assert payload == {"error": f"{command} --file does not read key 'extra'"}


@pytest.mark.parametrize("command", sorted(_PARAMETER_FILES))
def test_parameter_file_nested_too_deeply_exits_2(tmp_path, capsys, command):
    from fibrelab.cli import main
    path = tmp_path / "params.json"
    path.write_text("[" * 20000 + "]" * 20000)
    assert main([command, "--file", str(path)]) == 2
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, schemas.ERROR)
    assert payload["error"].startswith(f"cannot read parameter file {path}: ")


@pytest.mark.parametrize("command", sorted(_PARAMETER_FILES))
def test_parameter_file_not_utf8_exits_2(tmp_path, capsys, command):
    from fibrelab.cli import main
    path = tmp_path / "params.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main([command, "--file", str(path)]) == 2
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, schemas.ERROR)
    assert "cannot read parameter file" in payload["error"]


def test_scan_streams_csv_per_row():
    proc = run_cli(["xiao-scan", "--g2", "2", "--chi-max", "6", "--format", "csv"])
    assert proc.returncode == 0
    lines = proc.stdout.decode().splitlines()
    assert len(lines) > 1
    chis = [int(line.split(",")[0]) for line in lines[1:]]
    assert chis == sorted(chis)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("bounds", [["--g2", "-1", "--chi-max", "4"],
                                    ["--g2", "3", "--chi-max", "1"]])
def test_scan_argument_errors_print_only_the_error(fmt, bounds):
    # the arguments are checked before the CSV header is written
    proc = run_cli(["xiao-scan", *bounds, "--format", fmt])
    assert proc.returncode == 1
    lines = proc.stdout.decode().splitlines()
    assert len(lines) == 1
    jsonschema.validate(json.loads(lines[0]), schemas.ERROR)


def test_more_roots_than_the_seeded_stream_holds_exits_1():
    # genus 77 needs 156 distinct roots; the stream's range holds 155
    proc = subprocess.run([sys.executable, "-m", "fibrelab", "construct", "--genus", "77"],
                          capture_output=True, timeout=60)
    assert proc.returncode == 1
    jsonschema.validate(json.loads(proc.stdout), schemas.ERROR)


@pytest.mark.parametrize("argv,message", [
    (["--surface", "P1xP1", "--query", "bogus"], "unknown P1xP1 query 'bogus'"),
    (["--surface", "F_e", "--query", "bogus"], "unknown F_e query 'bogus'"),
    (["--surface", "F_e", "--e", "1", "--query", "bogus"], "unknown F_e query 'bogus'"),
    (["--surface", "F_e", "--query", "genus"], "query 'genus' needs --e, --a, --b"),
    (["--surface", "F_e", "--e", "1", "--query", "intersect", "--a", "1"],
     "query 'intersect' needs --b, --a2, --b2"),
    (["--surface", "DelPezzo1", "--query", "h0"], "unknown DelPezzo1 query 'h0'"),
    (["--surface", "DelPezzo1", "--query", "anticanonical-dim"],
     "query 'anticanonical-dim' needs --r"),
    (["--surface", "P1xP1", "--query", "severi", "--a", "2"],
     "query 'severi' needs --b, --nodes"),
    # a missing flag is reported before one the query does not read
    (["--surface", "P1xP1", "--query", "severi", "--a", "2", "--r", "1"],
     "query 'severi' needs --b, --nodes"),
])
def test_systems_query_errors(argv, message, capsys):
    from fibrelab.cli import main
    assert main(["systems", *argv]) == 2
    assert json.loads(capsys.readouterr().out) == {"error": message}


# (surface, query) -> the library call, taking the query's flags by name
_SYSTEMS_CALLS = {
    ("P1xP1", "h0"): lambda a, b: ls.h0_p1xp1(ls.Bidegree(a, b)),
    ("P1xP1", "genus"): lambda a, b: ls.arithmetic_genus_p1xp1(ls.Bidegree(a, b)),
    ("P1xP1", "severi"): lambda a, b, nodes: ls.severi_dimension(
        ls.SeveriSpec(ls.Bidegree(a, b), nodes)),
    ("P1xP1", "prescribed-nodes"): lambda genus, nodes: ls.prescribed_nodes_dimension(
        genus, nodes),
    ("P1xP1", "hyperelliptic-bidegree"): lambda genus: dataclasses.asdict(
        ls.hyperelliptic_bidegree(genus)),
    ("F_e", "genus"): lambda e, a, b: ls.hirzebruch_genus(ls.HirzebruchClass(e, a, b)),
    ("F_e", "intersect"): lambda e, a, b, a2, b2: ls.hirzebruch_intersection(
        ls.HirzebruchClass(e, a, b), ls.HirzebruchClass(e, a2, b2)),
    ("F_e", "effective"): lambda e, a, b: ls.hirzebruch_effective(ls.HirzebruchClass(e, a, b)),
    ("DelPezzo1", "anticanonical-dim"): lambda r: ls.delpezzo_anticanonical_dim(r),
}

# flag values per query; together they tell every swap of two flags apart
# (checked below), so a flag read in another's place changes the result
_SYSTEMS_VALUES = [
    ("P1xP1", "h0", {"a": 2, "b": 5}),
    ("P1xP1", "genus", {"a": 2, "b": 5}),
    ("P1xP1", "severi", {"a": 3, "b": 4, "nodes": 2}),
    ("P1xP1", "prescribed-nodes", {"genus": 4, "nodes": 3}),
    ("P1xP1", "hyperelliptic-bidegree", {"genus": 4}),
    ("F_e", "genus", {"e": 1, "a": 2, "b": 5}),
    ("F_e", "intersect", {"e": 2, "a": 1, "b": 5, "a2": 3, "b2": 7}),  # a - b + e a != 0
    # a boolean answer: no one triple tells all three swaps apart
    ("F_e", "effective", {"e": 0, "a": 3, "b": 2}),
    ("F_e", "effective", {"e": 1, "a": 2, "b": 1}),
    ("DelPezzo1", "anticanonical-dim", {"r": 3}),
]


def test_systems_values_cover_every_query():
    assert {(s, q) for s, q, _ in _SYSTEMS_VALUES} == set(_SYSTEMS_CALLS) == set(_SYSTEMS_QUERIES)


@pytest.mark.parametrize("surface,query", sorted(_SYSTEMS_QUERIES))
def test_each_systems_function_takes_the_flags_its_row_names(surface, query):
    flags, function = _SYSTEMS_QUERIES[surface, query]
    assert len(inspect.signature(function).parameters) == len(flags)


@pytest.mark.parametrize("surface,query,values", _SYSTEMS_VALUES,
                         ids=[f"{s}-{q}-{i}" for i, (s, q, _) in enumerate(_SYSTEMS_VALUES)])
def test_systems_result_equals_the_library_call(surface, query, values, capsys):
    from fibrelab.cli import main
    argv = ["systems", "--surface", surface, "--query", query]
    for name, value in values.items():
        argv += [f"--{name}", str(value)]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"surface": surface, "query": query,
                       "result": _SYSTEMS_CALLS[surface, query](**values)}


@pytest.mark.parametrize("surface,query", sorted(_SYSTEMS_CALLS))
def test_systems_values_tell_every_swap_of_two_flags_apart(surface, query):
    call = _SYSTEMS_CALLS[surface, query]
    cases = [v for s, q, v in _SYSTEMS_VALUES if (s, q) == (surface, query)]

    def answer(values):
        try:
            return call(**values)
        except ValueError as exc:
            return str(exc)

    for x, y in itertools.combinations(cases[0], 2):
        if surface == "P1xP1" and {x, y} == {"a", "b"}:
            continue  # the two rulings of the quadric play the same role
        assert any(answer({**v, x: v[y], y: v[x]}) != answer(v) for v in cases), (x, y)


@pytest.mark.parametrize("argv,message", [
    (["construct", "--genus", "2", "--kind", "split", "--nodes", "2", "--seed", "1"],
     "construct --kind split does not read --nodes"),
    (["systems", "--surface", "DelPezzo1", "--query", "anticanonical-dim", "--r", "2", "--a", "7"],
     "query 'anticanonical-dim' does not read --a"),
    (["systems", "--surface", "P1xP1", "--query", "h0", "--a", "2", "--b", "3", "--e", "4"],
     "query 'h0' does not read --e"),
    (["systems", "--surface", "F_e", "--e", "1", "--query", "genus", "--a", "1", "--b", "2",
      "--nodes", "0", "--r", "3"], "query 'genus' does not read --nodes, --r"),
])
def test_flags_the_subcommand_does_not_read_exit_2(argv, message, capsys):
    from fibrelab.cli import main
    assert main(argv) == 2
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, schemas.ERROR)
    assert payload == {"error": message}


_INVARIANT_FLAGS = ("chi", "q", "pg", "k2", "e", "g1", "g2", "epsilon", "d")
# (operation, an invariant flag its row does not declare), for every operation
_UNREAD_INVARIANT_FLAGS = [
    (operation, name) for operation, (flags, options, _) in _INVARIANTS_OPERATIONS.items()
    for name in _INVARIANT_FLAGS if name not in (*flags, *options)]


@pytest.mark.parametrize("operation,name", _UNREAD_INVARIANT_FLAGS,
                         ids=[f"{o}-{n}" for o, n in _UNREAD_INVARIANT_FLAGS])
def test_invariant_flags_the_operation_does_not_read_exit_2(operation, name, capsys):
    from fibrelab.cli import main
    # the argv of the operation's first documented example, after "invariants"
    argv = next(ex[1:] for _, ex, _, _ in EXAMPLES if ex[:2] == ["invariants", operation])
    unread = [f"--{name}", "7"]
    assert main(["invariants", *argv]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["invariants", *argv, *unread])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(unread)}" in capsys.readouterr().err


def test_nodal_construct_without_nodes_is_smooth(capsys):
    from fibrelab.cli import main
    outputs = []
    for nodes in ([], ["--nodes", "0"]):
        assert main(["construct", "--genus", "3", "--seed", "4", *nodes]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv,message", [
    (["construct", "--genus", "1"], "construction requires g >= 2"),
])
def test_domain_errors_exit_1(argv, message):
    proc = run_cli(argv)
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    jsonschema.validate(payload, schemas.ERROR)
    assert payload == {"error": message}


def test_printed_pencil_reads_back_through_the_parameter_file(tmp_path):
    golden = (GOLDEN / "pencil_demo.json").read_bytes()
    path = tmp_path / "pencil.json"
    path.write_text(json.dumps(json.loads(golden)["pencil"]))
    proc = run_cli(["pencil", "--file", str(path)])
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == golden


def _readme_json(readme: str, start: str):
    """The first JSON value after ``start`` in the README; comment lines lose their ``#``."""
    rest = readme[readme.index(start) + len(start):]
    text = "\n".join(line.lstrip("#") for line in rest.split("\n"))
    return json.JSONDecoder().raw_decode(text.lstrip())[0]


def test_readme_examples_match_the_goldens():
    readme = (GOLDEN.parent.parent / "README.md").read_text(encoding="utf-8")
    assert _readme_json(readme, "# classify a model:") == json.loads(
        (GOLDEN / "classify_smooth.json").read_bytes())
    assert _readme_json(readme, "quartic Galois orbit:\n\n```json") == json.loads(
        (GOLDEN / "pencil_demo.json").read_bytes())


def test_readme_library_quickstart_runs():
    readme = (GOLDEN.parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Library quickstart"):]
    start = section.index("```python\n") + len("```python\n")
    code = section[start:section.index("```", start)]
    assert "assert report.ok" in code
    exec(compile(code, "README.md (Library quickstart)", "exec"), {})
