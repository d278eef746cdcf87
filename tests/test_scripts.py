"""Smoke tests for the experiment scripts under scripts/."""

import importlib.util
import os
import pathlib
import subprocess
import sys
from types import SimpleNamespace

import pytest

from cli_examples import DEMO_F0, DEMO_F1

TESTS = pathlib.Path(__file__).resolve().parent
SCRIPTS = TESTS.parent / "scripts"
SRC = SCRIPTS.parent / "src"


def run_python(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True, env=env)


def run_script(name, *argv):
    return run_python(str(SCRIPTS / name), *argv)


def test_pencil_census_runs():
    proc = run_script("pencil_census.py", "--genus", "2", "--count", "3")
    assert proc.returncode == 0, proc.stderr.decode()
    assert len(proc.stdout.decode().splitlines()) == 4  # header and one row per seed


def test_pencil_census_runs_under_optimisation():
    # -O strips asserts: the census's Euler check must not be one
    proc = run_python("-O", str(SCRIPTS / "pencil_census.py"), "--genus", "2", "--count", "3")
    assert proc.returncode == 0, proc.stderr.decode()
    assert len(proc.stdout.decode().splitlines()) == 4


def test_pencil_demo_under_optimisation_matches_golden():
    proc = run_python("-O", "-m", "fibrelab", "pencil", "--genus", "2",
                      "--f0", DEMO_F0, "--f1", DEMO_F1)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (TESTS / "golden" / "pencil_demo.json").read_bytes()


@pytest.mark.parametrize("g2", [0, 1, 2])
def test_geography_scan_validates(g2):
    # g2 >= 1 reaches the q = g2 stratum that g2 = 0 never produces
    proc = run_script("geography_scan.py", "--g2", str(g2), "--chi-max", "4", "--validate")
    assert proc.returncode == 0, proc.stderr.decode()
    assert b", 0 failures" in proc.stderr


def test_geography_scan_exits_1_when_a_tuple_fails(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("geography_scan", SCRIPTS / "geography_scan.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    calls = []

    def fail_the_first(inv, case):
        calls.append(inv)
        return SimpleNamespace(ok=len(calls) > 1)

    monkeypatch.setattr(script, "xiao_validate", fail_the_first)
    monkeypatch.setattr(sys, "argv", ["geography_scan.py", "--chi-max", "2", "--validate"])
    with pytest.raises(SystemExit) as exc:
        script.main()
    assert exc.value.code == 1
    assert ", 1 failures" in capsys.readouterr().err
