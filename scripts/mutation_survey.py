#!/usr/bin/env python3
"""Sample random tangle decompositions and tabulate mutation behaviour.

For each sample the glued diagram and its three mutants are compared on
the items of `knotmut report`, each of them a mutation invariant; any
item that differs is reported (none is expected).
"""

import argparse
import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from knotmut.report import (DIFFERENT, ReportOptions, compare_pair,
                            compute_report)
from knotmut.tangles import AXES, mutate, random_decomposition


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=25)
    ap.add_argument("--max-crossings", type=int, default=12)
    ap.add_argument("--colors", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    opts = ReportOptions(colors=args.colors)
    mismatches = 0
    for i in range(args.samples):
        td = random_decomposition(rng, max_crossings=args.max_crossings)
        d = td.glue(f"sample{i}")
        base = compute_report(d.name, d, options=opts)
        for axis in AXES:
            got = compute_report(d.name, mutate(td, axis), options=opts)
            for key, state in compare_pair(base, got).per_item.items():
                if state == DIFFERENT:
                    mismatches += 1
                    print(f"sample {i} axis {axis}: {key} changed")
        print(f"sample {i}: {len(d.crossings)} crossings, "
              f"{len(AXES)} mutants checked")
    print(f"done: {args.samples} samples, {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
