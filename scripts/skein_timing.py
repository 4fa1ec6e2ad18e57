#!/usr/bin/env python3
"""Time the satellite skein trees on a list of companion knots.

For each companion the script prints one line per satellite polynomial:
the HOMFLY polynomial of the untwisted Whitehead double, the HOMFLY
polynomial of the 2-cable, and the Kauffman polynomial of the Whitehead
double.  These are the library's own trees, `skein2.p_whitehead_plus`,
`skein2.homfly_2cable` and `skein2.kauffman_f` of
`satellites.whitehead_double`, so a change of framing there is timed
here too.  Each line gives the nodes the resolution tree expanded, the
entries of its memo and the hits on it, the seconds it took and the
microseconds per node, and whether it finished ("done"), stopped at
`--max-nodes` nodes ("capped") or ran out of `--budget-seconds`
("limited").  The default companions are those of the benchmark's
satellites workload: seven named knots and two 7-crossing 2-bridge knots
glued from rational tangles.

The times are raw `time.perf_counter` readings, not scaled by any
calibration, so they move with the machine's speed from one run to the
next: compare them only within one run.  The node, memo-entry and
memo-hit counts of a tree that finishes or is capped do not depend on
the machine's speed, and compare across runs.  Those of a tree stopped by
`--budget-seconds` (a "limited" line, and so the total) say how far it
got in that time, so they move with the machine's speed as well.  Under
`--max-nodes`, as under the benchmark's node caps, every tree that does
not finish does a fixed amount of work, so its microseconds per node
measure the cost of a node on the same tree in every run.

`--tree NAME` runs only the named satellite trees (`whitehead_homfly`,
`cable_homfly`, `whitehead_kauffman`; repeat it to name more), in that
order; the default runs all three.  The Whitehead HOMFLY of a
paper-scale pretzel finishes in seconds, while its Kauffman tree runs to
the time budget and holds gigabytes of memo, so naming the one tree
keeps such a run short.

The last line gives the process's peak resident memory, read from
`resource.getrusage` in MB (ru_maxrss / 1024, as the benchmark's
`peak_rss_mb`).  A tree frees its memo when it ends, so this is about the
largest single tree's memory plus the interpreter's, not a sum over trees.

    python3 scripts/skein_timing.py
    python3 scripts/skein_timing.py --max-nodes 2000
    python3 scripts/skein_timing.py --budget-seconds 10 6_2 "braid: 3 | 1 1 2 -1 2"
    python3 scripts/skein_timing.py --tree whitehead_homfly --tree cable_homfly
"""

import argparse
import os
import re
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from knotmut import skein2
from knotmut.budget import time_limit
from knotmut.diagram import parse_knot_spec
from knotmut.satellites import whitehead_double
from knotmut.tangles import TangleDecomposition, rational_tangle

NAMED = ("trefoil", "figure8", "5_1", "5_2", "6_1", "6_2", "6_3")
# (outer, inner) rational-tangle vectors of the two 2-bridge companions
TWO_BRIDGE = (((0, -4), (0, -3)), ((0, -4), (0, -1, -2)))
TREES = ("whitehead_homfly", "cable_homfly", "whitehead_kauffman")


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


def satellites(d, n):
    """(name, tree) of the three satellite polynomials of d, each run
    with node budget n (None: no budget)."""
    return (("whitehead_homfly",
             lambda: skein2.p_whitehead_plus(d, max_nodes=n)),
            ("cable_homfly", lambda: skein2.homfly_2cable(d, max_nodes=n)),
            ("whitehead_kauffman",
             lambda: skein2.kauffman_f(whitehead_double(d), max_nodes=n)))


def run(tree, seconds):
    """(nodes, memo entries, memo hits, seconds, status) of one tree."""
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
            tree()
        status = "done"
    except skein2.ResourceLimitExceeded as exc:
        status = "capped" if str(exc).startswith("node") else "limited"
    finally:
        skein2.Budget = budget
    seconds = time.perf_counter() - start
    memo, hits = map(int, re.fullmatch(r"(\d+) memo entries, (\d+) memo hits",
                                       made[0].progress()).groups())
    return made[0].nodes, memo, hits, seconds, status


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
    ap.add_argument("--max-nodes", type=int, default=None,
                    help="node budget of each tree (default: none)")
    ap.add_argument("--tree", action="append", choices=TREES,
                    help="run only this satellite tree; repeat to name "
                         "more (default: all three)")
    args = ap.parse_args()
    if args.max_nodes is not None and args.max_nodes < 0:
        ap.error("--max-nodes must be at least 0")

    print("# times are raw perf_counter readings and compare only within "
          "this run; node, memo-entry and memo-hit counts compare across "
          "runs only on done and capped lines")
    total = [0, 0, 0, 0.0]
    for name, d in companions(args.knots):
        for job, tree in satellites(d, args.max_nodes):
            if args.tree and job not in args.tree:
                continue
            *counts, status = run(tree, args.budget_seconds)
            total = [t + c for t, c in zip(total, counts)]
            print(f"{name} {job}: {line(*counts)}, {status}")
    print(f"total: {line(*total)}")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS: {peak:.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
