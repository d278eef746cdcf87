#!/usr/bin/env python3
"""Census of singular fibres across seeded pencils.

For each seed, build the pencil of two monic squarefree degree-2g+2 members,
locate its singular fibres exactly, and tabulate the Euler accounting:

    python scripts/pencil_census.py --genus 2 --count 10

The base is P^1, so every row re-checks e_total = e(A) e(D) + sum of node
contributions and the lower bound 4 - 4g = e(A) e(P^1); a failing row names
its seed and exits with status 1, also under python -O.  Integer flags follow
the fibrelab integer grammar; a domain error, such as a genus below 2, is one
line on stderr and exit status 1.  A reader that stops early, as ``head``
does, ends the census silently with status 141 (128 + SIGPIPE).
"""

import argparse
import sys
from fractions import Fraction

from fibrelab.cli import integer_argument, stdout_filter
from fibrelab.pencils import seeded_pencil, total_space_euler


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--genus", type=integer_argument, default=2)
    parser.add_argument("--count", type=integer_argument, default=10)
    parser.add_argument("--seed-base", type=integer_argument, default=0)
    args = parser.parse_args()
    try:  # every pencil is built, and its arguments checked, before any output
        pencils = [seeded_pencil(args.genus, args.seed_base + i) for i in range(args.count)]
    except ValueError as exc:
        sys.exit(f"error: {exc}")

    print(f"{'seed':>4} {'deg disc':>8} {'fibres':>6} {'orbits':>6} "
          f"{'sum nodes':>9} {'e_total':>7} {'bound':>6} strict")
    for seed, pencil in enumerate(pencils, args.seed_base):
        summary = total_space_euler(pencil)
        records = summary.singular_fibres
        orbit_count = sum(1 for r in records if not isinstance(r.parameter, Fraction))
        contributions = sum(r.conjugate_count * r.nodes_per_fibre for r in records)
        if (summary.e_total != summary.e_fibre * summary.e_base + contributions
                or summary.e_total < summary.bound):
            sys.exit(f"seed {seed}: e_total {summary.e_total} fails the Euler accounting "
                     f"(node contributions {contributions}, bound {summary.bound})")
        print(f"{seed:>4} {summary.disc_degree:>8} {len(records):>6} {orbit_count:>6} "
              f"{contributions:>9} {summary.e_total:>7} {summary.bound:>6} {summary.strict}")


if __name__ == "__main__":
    sys.exit(stdout_filter(main))
