#!/usr/bin/env python3
"""Scan the admissible genus-2 fibration tuples and cross-validate them.

Streams the (chi, epsilon, K2-window) rows as CSV on stdout; with
``--validate`` every integer K2 in every window is pushed back through the
full inequality validator; a failure would indicate an internal
inconsistency, and the script then exits with status 1.  ``--plot``
sketches the admissible K2 region per chi on stderr.  Integer flags follow
the fibrelab integer grammar; a domain error, such as a negative base genus,
is one line on stderr and exit status 1.  A reader that stops early, as
``head`` does, ends the scan silently with status 141 (128 + SIGPIPE).

    python scripts/geography_scan.py --g2 0 --chi-max 8 --validate --plot
"""

import argparse
import sys
from collections import defaultdict

from fibrelab.cli import integer_argument, stdout_filter
from fibrelab.geography import (
    CSV_HEADER,
    SurfaceInvariants,
    XiaoCase,
    xiao_admissible_scan,
    xiao_validate,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--g2", type=integer_argument, default=0)
    parser.add_argument("--chi-max", type=integer_argument, default=8)
    parser.add_argument("--validate", action="store_true")
    parser.add_argument("--plot", action="store_true")
    args = parser.parse_args()
    try:  # the arguments are checked at the call, before any output
        rows = xiao_admissible_scan(args.g2, args.chi_max)
    except ValueError as exc:
        sys.exit(f"error: {exc}")

    windows = defaultdict(list)
    checked = failures = 0
    print(CSV_HEADER)
    for row in rows:
        print(row.csv_row())
        windows[row.chi].append((row.k2_min, row.k2_max))
        if args.validate:
            for K2 in range(row.k2_min, row.k2_max + 1):
                inv = SurfaceInvariants(chi=row.chi, q=row.q, p_g=row.p_g,
                                        K2=K2, g2=args.g2, epsilon=row.epsilon)
                checked += 1
                failures += 0 if xiao_validate(inv, XiaoCase.CASE_II).ok else 1
    if args.validate:
        print(f"validated {checked} (chi, epsilon, K2) tuples, {failures} failures",
              file=sys.stderr)

    if args.plot and windows:
        lo = min(k2 for spans in windows.values() for k2, _ in spans)
        hi = max(k2 for spans in windows.values() for _, k2 in spans)
        print(f"admissible K2 per chi (g2 = {args.g2}); '#' admissible, "
              f"axis {lo}..{hi}", file=sys.stderr)
        for chi in sorted(windows):
            cells = []
            for k2 in range(lo, hi + 1):
                inside = any(a <= k2 <= b for a, b in windows[chi])
                cells.append("#" if inside else ".")
            print(f"chi={chi:>3} |{''.join(cells)}|", file=sys.stderr)

    if failures:
        sys.exit(1)


if __name__ == "__main__":
    sys.exit(stdout_filter(main))
