#!/usr/bin/env python3
"""Run the full invariant comparison over candidate mutant pairs.

Reads knot specs from a file (default data/paper_knots.txt), pairs up
consecutive entries, and prints a per-invariant comparison plus the
overall verdict for each pair.  Options mirror the `compare` CLI
subcommand but add the slower group-theoretic items by default.  The
time budget bounds each item; an item that uses it up is compared as
unknown.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from knotmut.diagram import load_knot_file
from knotmut.report import ReportOptions, compare_pair, compute_report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("file", nargs="?",
                    default=os.path.join(os.path.dirname(__file__),
                                         os.pardir, "data",
                                         "paper_knots.txt"))
    ap.add_argument("--colors", type=int, default=3)
    ap.add_argument("--lowindex", type=int, default=0)
    ap.add_argument("--quotients-max-order", type=int, default=0)
    ap.add_argument("--budget-seconds", type=float, default=120.0)
    args = ap.parse_args()

    specs = load_knot_file(args.file)
    if len(specs) < 2:
        print(f"need at least two knots in {args.file}", file=sys.stderr)
        return 1
    opts = ReportOptions(colors=args.colors,
                         lowindex=args.lowindex,
                         quotients=args.quotients_max_order > 0,
                         quotients_max_order=args.quotients_max_order,
                         budget_seconds=args.budget_seconds)
    for (n1, d1, b1), (n2, d2, b2) in zip(specs[0::2], specs[1::2]):
        r1 = compute_report(n1, d1, b1, options=opts)
        r2 = compute_report(n2, d2, b2, options=opts)
        res = compare_pair(r1, r2)
        print(f"{n1} vs {n2}")
        for key, status in sorted(res.per_item.items()):
            print(f"  {key}: {status}")
        print(f"  verdict: {res.verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
