#!/usr/bin/env python3
"""Time the paper-scale group searches on one double branched cover.

The cover is that of the pretzel knot P(3,3,-3,-2), drawn as the
vertical mutant of P(3,3,-2,-3), built from its Wirtinger presentation
by `branched_cover_from_meridians`.  The script prints the generators and
relator letters of the Tietze-reduced knot group that the cover is
rewritten from, those of the cover, and the seconds the cover took.
For each target it prints the number of epimorphisms up to target
automorphisms and the seconds of two searches: the first, which also
builds the target's tables (its conjugation orbit representatives), and
a warm second one that reuses them.  With `--kernels` it also prints,
for each target, the number of kernels, the seconds of all their
`kernel_abelianization` calls, the entries of all their relation rows
(counted in an untimed pass, a number that repeats exactly and that
the Schreier transversal sets) and a digest (the first 16 hex digits
of the SHA-256 of the sorted invariants' repr), which is equal exactly
when the invariants are.  Then it prints the number of conjugacy
classes of subgroups of index at most `--index` and the seconds of that
search.
With `--budget-seconds` it also runs the index-6 search under that time
budget and prints its result or how far it got.

    python3 scripts/group_search_timing.py
    python3 scripts/group_search_timing.py --targets "Alt(5)" --index 3
    python3 scripts/group_search_timing.py --targets "Alt(7)" --kernels
"""

import argparse
import hashlib
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from knotmut.budget import ResourceLimitExceeded, time_limit
from knotmut.permgroups import identity, target
from knotmut.presentations import (abelianized_schreier_rows,
                                   branched_cover_from_meridians,
                                   low_index_subgroups, tietze_simplify,
                                   wirtinger_presentation)
from knotmut.quotients import (_regular_table, epimorphisms,
                               kernel_abelianization)
from knotmut.tangles import (TangleDecomposition, mutate, rational_tangle,
                             tangle_sum)


def vertical_twist(n: int):
    return rational_tangle([0, 1, n - 1] if n > 0 else [0, -1, n + 1])


def timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def size(pres) -> str:
    return (f"{pres.ngens} generators, "
            f"{sum(map(len, pres.relators))} letters")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--targets", nargs="*", default=["Alt(7)", "PSL(2,13)"],
                    help="epimorphism targets, named as the report's "
                         "quotients item prints them, or as Alt(n), Sym(n)")
    ap.add_argument("--index", type=int, default=5,
                    help="largest subgroup index of the low-index search")
    ap.add_argument("--kernels", action="store_true",
                    help="also time the kernels' abelian invariants")
    ap.add_argument("--budget-seconds", type=float, default=None,
                    help="also run the index-6 search within this budget")
    args = ap.parse_args()

    outer = tangle_sum(vertical_twist(3), vertical_twist(3))
    inner = tangle_sum(vertical_twist(-2), vertical_twist(-3))
    knot = wirtinger_presentation(
        mutate(TangleDecomposition(outer, inner), "vertical"))
    pres, s = timed(lambda: branched_cover_from_meridians(knot))
    print(f"cover of P(3,3,-3,-2): knot group {size(tietze_simplify(knot))} "
          f"after Tietze, cover {size(pres)}, {s:.3f} s")
    for name in args.targets:
        group = target(name)
        group.sorted_elements   # the closure is set-up, not search
        homs, first = timed(lambda: epimorphisms(pres, group, simplify=False))
        _, warm = timed(lambda: epimorphisms(pres, group, simplify=False))
        print(f"epimorphisms onto {name}: {len(homs)} kernels, "
              f"{first:.3f} s first, {warm:.3f} s warm")
        if args.kernels:
            invs, s = timed(lambda: [kernel_abelianization(pres, h, group)
                                     for h in homs])
            entries = sum(
                len(row) for h in homs for row in abelianized_schreier_rows(
                    pres, _regular_table(h, identity(group.degree)))[0])
            digest = hashlib.sha256(repr(sorted(invs)).encode()).hexdigest()
            print(f"kernels onto {name}: {len(invs)} kernels, {s:.3f} s, "
                  f"{entries} row entries, digest {digest[:16]}")
    tables, s = timed(lambda: low_index_subgroups(pres, args.index))
    print(f"low-index to {args.index}: {len(tables)} classes, {s:.2f} s")
    if args.budget_seconds is not None:
        try:
            with time_limit(args.budget_seconds):
                tables, s = timed(lambda: low_index_subgroups(
                    pres, 6, max_tables=None))
            print(f"low-index to 6: {len(tables)} classes, {s:.2f} s")
        except ResourceLimitExceeded as exc:
            print(f"low-index to 6: limited, {exc}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
