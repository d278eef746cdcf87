"""Run every workload over several seeds and print one row per workload.

    python3 benchmarks/summary.py --seeds 5 --seconds 20

Each row gives the median and quartiles [q1, q3] over the seeds of every
end-to-end metric, plus failed_ratio over all ops attempted.  Then one traced
run per workload (the first seed) lists the per-module self times, largest
first, with each module's share of their sum.  Run it on the parent commit
and on a change with the same arguments to compare the two.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from checkout import ROOT

RUN = Path(__file__).with_name("run.py")
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", str(trace)],
                         stdout=subprocess.PIPE, check=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=3, help="seeds 1..N per workload")
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args(argv)

    for workload in WORKLOADS:
        runs = [run_once(workload, seed, args.seconds, 0) for seed in range(1, args.seeds + 1)]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        cells = []
        for name, metric in runs[0]["metrics"].items():
            q1, q2, q3 = quartiles([r["metrics"][name]["value"] for r in runs])
            cells.append(f"{name} {q2:.4g} [{q1:.4g}, {q3:.4g}] {metric['unit']}")
        cells.append(f"failed_ratio {failed / attempted:.4g} ratio ({failed} of {attempted})")
        print(f"{workload:<13} " + "  ".join(cells))
        traced = run_once(workload, 1, args.seconds, 1)["metrics"]
        modules = sorted(((metric["value"], name[:-len(".self_s")])
                          for name, metric in traced.items()
                          if name.endswith(".self_s") and name.count(".") == 1), reverse=True)
        total = sum(value for value, _ in modules) or 1.0
        print(f"{'':<13} self time: " + "  ".join(
            f"{m} {value:.3g} s ({100 * value / total:.0f}%)" for value, m in modules))
        # cli-cold runs in child interpreters: its layers are timed from outside
        cli = sorted(((metric["value"], name) for name, metric in traced.items()
                      if name.startswith("cli.") and metric["unit"] == "s" and metric["value"]),
                     reverse=True)
        if cli:
            print(f"{'':<13} cli layers: " + "  ".join(f"{name} {value:.3g} s"
                                                        for value, name in cli))
    return 0


if __name__ == "__main__":
    sys.exit(main())
