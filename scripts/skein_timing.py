#!/usr/bin/env python3
"""Time the satellite skein trees on a list of companion knots.

For each companion the script prints one line per satellite polynomial:
the HOMFLY polynomial of the untwisted Whitehead double, the HOMFLY
polynomial of the 2-cable, and the Kauffman polynomial of the Whitehead
double.  Each line gives the nodes the resolution tree expanded, the
entries of its memo and the hits on it, the seconds it took and the
microseconds per node, and whether it finished within
`--budget-seconds`.  The default companions are those of the benchmark's
satellites workload: seven named knots and two 7-crossing 2-bridge knots
glued from rational tangles.

The times are raw `time.perf_counter` readings, not scaled by any
calibration, so they move with the machine's speed from one run to the
next: compare them only within one run.  The node, memo-entry and
memo-hit counts of a tree that finishes do not depend on the machine's
speed, and compare across runs.  Those of a tree stopped by
`--budget-seconds` (a "limited" line, and so the total) say how far it
got in that time, so they move with the machine's speed as well.

    python3 scripts/skein_timing.py
    python3 scripts/skein_timing.py --budget-seconds 10 6_2 "braid: 3 | 1 1 2 -1 2"
"""

import argparse
import os
import re
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from knotmut import skein2
from knotmut.budget import time_limit
from knotmut.diagram import parse_knot_spec
from knotmut.satellites import cable, whitehead_double
from knotmut.tangles import TangleDecomposition, rational_tangle

NAMED = ("trefoil", "figure8", "5_1", "5_2", "6_1", "6_2", "6_3")
# (outer, inner) rational-tangle vectors of the two 2-bridge companions
TWO_BRIDGE = (((0, -4), (0, -3)), ((0, -4), (0, -1, -2)))


def companions(specs):
    """(name, diagram) of each knot spec, or of the default companions."""
    if specs:
        for spec in specs:
            d = parse_knot_spec(spec)
            yield d.name or spec, d
        return
    for spec in NAMED:
        d = parse_knot_spec(spec)
        yield d.name, d
    for a, b in TWO_BRIDGE:
        d = TangleDecomposition(rational_tangle(list(a)),
                                rational_tangle(list(b))).glue(f"2b{a}{b}")
        yield d.name, d


def satellites(d):
    """(name, engine, diagram) of the three satellite polynomials of d."""
    double = whitehead_double(d, -d.writhe(), 1)
    return (("whitehead_homfly", skein2.homfly, double),
            ("cable_homfly", skein2.homfly, cable(d, 2, -1)),
            ("whitehead_kauffman", skein2.kauffman_f, double))


def run(engine, d, seconds):
    """(nodes, memo entries, memo hits, seconds, finished) of one tree."""
    budget = skein2.Budget
    made = []

    class Counting(budget):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    skein2.Budget = Counting
    start = time.perf_counter()
    try:
        with time_limit(seconds):
            engine(d, max_nodes=None)
        finished = True
    except skein2.ResourceLimitExceeded:
        finished = False
    finally:
        skein2.Budget = budget
    seconds = time.perf_counter() - start
    memo, hits = map(int, re.fullmatch(r"(\d+) memo entries, (\d+) memo hits",
                                       made[0].progress()).groups())
    return made[0].nodes, memo, hits, seconds, finished


def line(nodes, memo, hits, seconds):
    return (f"{nodes} nodes, {memo} memo entries, {hits} memo hits, "
            f"{seconds:.3f} s, {1e6 * seconds / max(nodes, 1):.1f} us/node")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("knots", nargs="*",
                    help="companions, as knot specs of the `knotmut` "
                         "commands (default: the benchmark's)")
    ap.add_argument("--budget-seconds", type=float, default=2.0,
                    help="time budget of each tree")
    args = ap.parse_args()

    print("# times are raw perf_counter readings and compare only within "
          "this run; node, memo-entry and memo-hit counts compare across "
          "runs only on done lines")
    total = [0, 0, 0, 0.0]
    for name, d in companions(args.knots):
        for job, engine, sat in satellites(d):
            *counts, finished = run(engine, sat, args.budget_seconds)
            total = [t + c for t, c in zip(total, counts)]
            print(f"{name} {job}: {line(*counts)}, "
                  f"{'done' if finished else 'limited'}")
    print(f"total: {line(*total)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
