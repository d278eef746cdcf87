"""Run one fibrelab benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload pencil-euler --seed 1 --seconds 20 --trace 0

One client runs the workload's fixed op list in a closed loop: each op is a
call (or, for ``cli-cold``, a cold ``python -m fibrelab``) whose answer is
checked before the next op starts.  With ``--trace 0`` the ops run untraced
for ``--seconds`` and the end-to-end metrics are printed; with ``--trace 1``
the first batch of ops runs untraced and traced in turn (see ``tracing.py``)
and the per-layer metrics are printed.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checkout import MissingSource, ROOT, child_env, require_source

SETUP_PROBES = 9  # cold set-ups per run, spread over it; setup_s is their median
SHOW_FAILURES = 5

# name -> unit, in BENCHMARK.json order
END_TO_END = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_s": "s", "op_tail_s": "s",
              "peak_rss_mib": "MiB"}


def measure_setup(workload: str, seed: int) -> float:
    """Time from starting a fresh interpreter to its first possible op."""
    probe = Path(__file__).with_name("setup_probe.py")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(probe), workload, str(seed)], cwd=ROOT,
                            env=child_env(), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
    with proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if line != b"ready\n" or proc.returncode != 0:
        raise RuntimeError(f"set-up of {workload} failed (exit {proc.returncode})")
    return elapsed


def tail(samples: list) -> tuple:
    """(value, percentile, samples beyond): the highest percentile with ten beyond it.

    With ten samples or fewer there is no such percentile; the maximum is
    returned with zero samples beyond.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def timed_run(wl, seconds: float, setup=None, probes: int = 0) -> dict:
    """Closed loop over the op list (wrapping if it runs out) for ``seconds``.

    ``probes`` calls of ``setup`` (each returns one set-up time) are spread
    evenly over the run, between ops, so set-up is sampled under the same
    machine load as the ops; the run is lengthened by the time they take.
    """
    samples, failures, setups, peak_child_kib, ok_ops = [], [], [], 0, 0
    start = time.perf_counter()
    paused = 0.0  # time spent in set-up probes
    i = 0
    while True:
        while (len(setups) < probes
               and time.perf_counter() - start - paused >= len(setups) * seconds / probes):
            begin = time.perf_counter()
            setups.append(setup())
            paused += time.perf_counter() - begin
        if time.perf_counter() - start - paused >= seconds:
            break
        op = wl.ops[i % len(wl.ops)]
        i += 1
        begin = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a raising op is a failed op, not a crashed run
            samples.append(time.perf_counter() - begin)
            failures.append(f"{op.label}: raised {exc!r}")
        else:
            samples.append(time.perf_counter() - begin)
            errors = wl.check(op, result)
            if errors:
                failures.append(f"{op.label}: {'; '.join(errors)}")
            else:
                ok_ops += 1
            peak_child_kib = max(peak_child_kib, getattr(result, "maxrss_kib", 0))
    rss_kib = (peak_child_kib if not wl.in_process
               else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return {"samples": samples, "failures": failures, "ok_ops": ok_ops, "setups": setups,
            "peak_rss_mib": rss_kib / 1024}


def end_to_end(run: dict) -> tuple:
    """(metrics, notes): every end-to-end metric, and a remark beside some."""
    samples = run["samples"]
    tail_value, pct, beyond = tail(samples)
    metrics = {
        "setup_s": statistics.median(run["setups"]),
        "ops_per_s": run["ok_ops"] / sum(samples),
        "op_p50_s": statistics.median(samples),
        "op_tail_s": tail_value,
        "peak_rss_mib": run["peak_rss_mib"],
    }
    notes = {
        "setup_s": f"median of {len(run['setups'])} cold set-ups",
        "op_p50_s": f"{len(samples)} ops",
        "op_tail_s": (f"p{pct:.1f}, {beyond} of {len(samples)} samples beyond" if beyond
                      else f"maximum; only {len(samples)} samples"),
    }
    return metrics, notes


def _emit(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))


def _row(name: str, value, unit: str, note: str = "") -> str:
    return f"{name:<40} {value:>14.6g} {unit:<6} {note}".rstrip()


def main(argv=None) -> int:
    try:
        require_source()
    except MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    import tracing
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    if args.trace:
        wl = workloads.build(args.workload, args.seed)
        run_trace = tracing.traced_in_process if wl.in_process else tracing.traced_cli
        outcome = run_trace(wl, args.seconds)
        if outcome.absent:
            print(f"# absent (reported as 0): {', '.join(outcome.absent)}")
        units = dict(tracing.PER_LAYER)
        for name, unit in tracing.PER_LAYER:
            print(_row(name, outcome.metrics[name], unit))
        _emit(outcome.failed == 0, outcome.attempted, outcome.failed, outcome.metrics, units)
        return 0

    wl = workloads.build(args.workload, args.seed)
    run = timed_run(wl, args.seconds, lambda: measure_setup(args.workload, args.seed),
                    SETUP_PROBES)
    metrics, notes = end_to_end(run)
    attempted, failed = len(run["samples"]), len(run["failures"])
    for failure in run["failures"][:SHOW_FAILURES]:
        print(f"# FAILED {failure}")
    for name, unit in END_TO_END.items():
        print(_row(name, metrics[name], unit, notes.get(name, "")))
    print(_row("failed_ratio", failed / attempted, "ratio", f"{failed} of {attempted} ops"))
    _emit(failed == 0, attempted, failed, metrics, END_TO_END)
    return 0


if __name__ == "__main__":
    sys.exit(main())
