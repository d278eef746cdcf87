import json
import pathlib
import subprocess
import sys

import jsonschema
import pytest

from fibrelab import schemas
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


@pytest.mark.parametrize("name,argv,expected_code", ERROR_EXAMPLES,
                         ids=[e[0] for e in ERROR_EXAMPLES])
def test_error_paths(name, argv, expected_code):
    proc = run_cli(argv)
    assert proc.returncode == expected_code
    payload = json.loads(proc.stdout)
    jsonschema.validate(payload, schemas.ERROR)


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
    (["--surface", "F_e", "--query", "bogus"], "query 'bogus' needs --e"),
    (["--surface", "F_e", "--e", "1", "--query", "bogus"], "unknown F_e query 'bogus'"),
    (["--surface", "F_e", "--query", "genus"], "query 'genus' needs --e"),
    (["--surface", "F_e", "--e", "1", "--query", "intersect", "--a", "1"],
     "query 'intersect' needs --b, --a2, --b2"),
    (["--surface", "DelPezzo1", "--query", "h0"], "unknown DelPezzo1 query 'h0'"),
    (["--surface", "DelPezzo1", "--query", "anticanonical-dim"],
     "query 'anticanonical-dim' needs --r"),
    (["--surface", "P1xP1", "--query", "severi", "--a", "2"],
     "query 'severi' needs --b, --nodes"),
])
def test_systems_query_errors(argv, message, capsys):
    from fibrelab.cli import main
    assert main(["systems", *argv]) == 2
    assert json.loads(capsys.readouterr().out) == {"error": message}


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
