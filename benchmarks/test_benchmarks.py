"""Self-tests of the benchmark harness (not of fibrelab).

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from checkout import ROOT, require_source

require_source()

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_py(cwd: Path, workload: str, trace: int = 0) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmarks/run.py", "--workload", workload,
                           "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_harness():
    assert SPEC["command"] == ["python3", "benchmarks/run.py"]
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == list(workloads.WHY.items())
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == tracing.PER_LAYER
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    proc = _run_py(ROOT, workload)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert [(name, m["unit"]) for name, m in metrics.items()] == list(run.END_TO_END.items())
    assert all(m["value"] > 0 for m in metrics.values())
    table = {line.split()[0]: line.split()[2] for line in lines[:-1] if not line.startswith("#")}
    assert table == {**run.END_TO_END, "failed_ratio": "ratio"}


def _first_results(wl, count):
    return [(op, op.run()) for op in wl.ops[:count]]


def test_a_wrong_answer_given_to_the_checker_is_a_failure():
    wl = workloads.build("pencil-euler", 3)
    for op, summary in _first_results(wl, 2):
        assert wl.check(op, summary) == []
        assert wl.check(op, dataclasses.replace(summary, e_total=summary.e_total + 1))
        records = summary.singular_fibres
        wrong = dataclasses.replace(records[0], nodes_per_fibre=records[0].nodes_per_fibre + 1)
        assert wl.check(op, dataclasses.replace(summary, singular_fibres=(wrong, *records[1:])))

    wl = workloads.build("locus-ladder", 3)
    [(op, (disc, factors))] = _first_results(wl, 1)
    assert wl.check(op, (disc, factors)) == []
    assert wl.check(op, (disc * 2, factors))
    assert wl.check(op, (disc, factors[1:] + [(factors[0][0], factors[0][1] + 1)]))

    wl = workloads.build("curve-census", 3)
    for op, (built, fc, points) in _first_results(wl, 3):
        assert wl.check(op, (built, fc, points)) == []
        assert wl.check(op, (built, dataclasses.replace(fc, t=fc.t + 1), points))

    wl = workloads.build("cli-cold", 3)
    [(op, child)] = _first_results(wl, 1)
    assert wl.check(op, child) == []
    assert wl.check(op, dataclasses.replace(child, stdout=child.stdout.replace(b"}", b", }")))
    assert wl.check(op, dataclasses.replace(child, code=1))


def test_the_loop_counts_checker_failures():
    wl = workloads.build("curve-census", 3)
    real = wl.check
    wl.check = lambda op, result: real(op, (result[0], dataclasses.replace(
        result[1], t=result[1].t + 1), result[2]))
    outcome = run.timed_run(wl, 0.5)
    assert len(outcome["failures"]) == len(outcome["samples"]) >= 1
    assert outcome["ok_ops"] == 0


def test_set_up_probes_are_spread_over_the_run():
    wl = workloads.build("curve-census", 3)
    outcome = run.timed_run(wl, 0.5, lambda: 0.25, 4)
    assert outcome["setups"] == [0.25] * 4
    metrics, _ = run.end_to_end(outcome)
    assert metrics["setup_s"] == 0.25
    assert metrics["ops_per_s"] == outcome["ok_ops"] / sum(outcome["samples"])


@dataclasses.dataclass(frozen=True)
class _RaisingOp:
    """An op whose call into fibrelab raises (t > g is out of range)."""

    genus: int = 2
    label: str = "raising"

    def run(self):
        from fibrelab import curves

        return curves.construct_nodal(2, 5, 0)


def test_a_raising_op_fails_the_traced_run_without_stopping_it(monkeypatch, capsys):
    wl = workloads.build("curve-census", 3)
    wl.ops = [_RaisingOp(), *wl.ops[:2]]
    wl.batch = 3
    monkeypatch.setattr(workloads, "build", lambda name, seed: wl)
    assert run.main(["--workload", "curve-census", "--seed", "3", "--seconds", "1",
                     "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not result["correct"]
    # the raising op fails in the reference batch and in each timed round
    assert result["failed"] >= 3 and result["failed"] * 3 == result["attempted"]
    assert result["metrics"]["curves.errors"]["value"] >= 1


def test_traced_and_untraced_runs_give_identical_results():
    wl = workloads.build("pencil-euler", 3)
    wl.batch = 3  # g=2 ops only: quick
    untraced = [op.run() for op in wl.ops[:wl.batch]]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        traced = [op.run() for op in wl.ops[:wl.batch]]
    finally:
        tracer.active = False
        tracer.uninstall()
    assert traced == untraced
    names = {span[0] for span in tracer.spans}
    assert {"pencils.total_space_euler", "pencils.classify_quotient_fibre",
            "quotient.QuotientElem.mul", "pencils.fibre_at_quotient",
            "polynomial.poly_matrix_det", "factorization.irreducible_factors"} <= names
    assert tracer.absent == []
    # every wrapper was undone
    from fibrelab import pencils, polynomial

    assert pencils.poly_matrix_det is polynomial.poly_matrix_det
    assert not hasattr(pencils.poly_matrix_det, "__wrapped__")

    outcome = tracing.traced_in_process(wl, 0.1)
    assert outcome.failed == 0 and outcome.attempted == 3 * wl.batch  # reference, untraced, traced
    assert outcome.metrics["quotient.self_s"] > 0
    assert outcome.metrics["curves.classify.calls"] >= 1


def test_traced_cli_run_matches_the_untraced_stdout():
    wl = workloads.build("cli-cold", 3)
    wl.batch = 2
    outcome = tracing.traced_cli(wl, 0.1, interpreter_starts=1)
    assert outcome.failed == 0
    assert outcome.metrics["cli.import_fibrelab_s"] > 0
    assert outcome.metrics["cli.stdout_bytes"] > 0


def test_an_absent_name_is_reported_not_fatal():
    wl = workloads.build("curve-census", 3)
    wl.batch = 2
    targets = tracing.SPAN_TARGETS + (("quotient", "NoSuchFunction", "quotient.NoSuchFunction"),
                                      ("no_such_module", "f", "no_such_module.f"))
    outcome = tracing.traced_in_process(wl, 0.1, targets)
    assert outcome.absent == ["quotient.NoSuchFunction", "no_such_module.f"]
    assert outcome.metrics["trace.absent_names"] == 2
    assert {name for name, _ in tracing.PER_LAYER} <= set(outcome.metrics)


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail([float(i) for i in range(1, 41)]) == (30.0, 75.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run_py(tmp_path, "pencil-euler")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
