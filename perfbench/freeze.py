"""Writes expected.json, and shows how the benchmark's inputs were chosen.

Run from the repository root, once, on the commit whose outputs are the
reference:

    PYTHONHASHSEED=0 PYTHONPATH=src:perfbench python3 perfbench/freeze.py

It first checks the constant inputs of `workloads.py` (every pretzel knot
is a non-trivial knot with the determinant of the formula, the control
pairs are told apart by the Jones polynomial, the braid determinants are
right), then runs every job any seed can choose and records its output.
It takes several minutes.  Jobs that hit their budget are frozen as
"limited"; a later commit may decide them, but must then agree with the
invariant checks.

    PYTHONHASHSEED=0 PYTHONPATH=src:perfbench python3 perfbench/freeze.py --pick

prints the searches that chose the 2-bridge companions and the braids.
They filter by knotmut's own output (Jones polynomials, covers after
Tietze), so they are run here once and their results are written into
`workloads.py` as constants, never at set-up: a change to knotmut must
not change which inputs the benchmark runs.
"""

from __future__ import annotations

import itertools
import json
import random
import sys

import corpus
import workloads
from knotmut import bracket, diagram
from worker import EXPECTED_PATH, run_pass

BRAID_LETTERS = 14
BRAIDS_PER_CLASS = {3: 1, 4: 2}   # cover generator count -> braids kept
MAX_RELATOR_LETTERS = {3: 80, 4: 320}


def check_inputs() -> list[str]:
    """Problems with the constant inputs of workloads.py."""
    problems = []
    pretzels = {}
    for p in workloads.MUTANT_SLATE + tuple(p for p, _, _ in workloads.PRETZEL_COVERS):
        for t, d in zip((p, corpus.vertical_mutant(p)), corpus.pretzel_pair(p)):
            pretzels[t] = d
    for pair in workloads.CONTROLS:
        for t in pair:
            if t not in pretzels:
                pretzels[t] = corpus.pretzel_pair(t)[0]
    for t, d in pretzels.items():
        try:
            corpus.check_nontrivial(d, corpus.pretzel_det(t))
        except ValueError as exc:
            problems.append(str(exc))
    for p, q in workloads.CONTROLS:
        if bracket.jones(pretzels[p]) == bracket.jones(pretzels[q]):
            problems.append(f"control {p} ~ {q}: same Jones polynomial")
    for spec, det, _, _ in workloads.BRAID_COVERS:
        b = diagram.parse_braid(spec)
        if b.component_count() != 1 or corpus.braid_det(b) != det:
            problems.append(f"braid {spec}: not a knot of determinant {det}")
    return problems


def two_bridge_knots(crossings: int = 7) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Twist vectors (a, b) whose glued closure is a new 2-bridge knot.

    The outer tangle is the integer tangle [0, k] and the inner one a
    rational tangle [0, a1, ...].  One diagram is kept per knot, told
    apart by the Jones polynomial up to mirror, and the named companions
    are left out.
    """
    seen: set[str] = set()
    for name in corpus.NAMED_COMPANIONS:
        j = bracket.jones(diagram.named_knot(name))
        seen |= {str(j), str(j.invert_var())}
    out = []
    for k in (-4, -3, -2):
        rest = crossings - abs(k)
        for n in range(1, 4):
            for v in itertools.product((-3, -2, -1, 1, 2, 3), repeat=n):
                if sum(map(abs, v)) != rest:
                    continue
                a, b = (0, k), (0,) + v
                d = corpus.two_bridge_diagram(a, b)
                if d.component_count() != 1:
                    continue
                j = bracket.jones(d)
                tags = {str(j), str(j.invert_var())}
                if j.is_one() or tags & seen:
                    continue
                seen |= tags
                out.append((a, b))
    return out


def random_knot_braid(rng: random.Random) -> diagram.BraidWord:
    """A random 14-letter braid on 5 or 6 strands whose closure is a knot."""
    while True:
        s = rng.choice((5, 6))
        word = tuple(rng.choice((1, -1)) * rng.randint(1, s - 1)
                     for _ in range(BRAID_LETTERS))
        b = diagram.BraidWord(s, word)
        if b.component_count() == 1:
            return b


def braid_pool(stream_seed: int = 0) -> dict[int, list]:
    """The first braids of a fixed random stream, by cover generator count.

    Each class caps the relator letters of the cover after Tietze, because
    presentation size drives the cost of every group job by 10-100x.
    """
    rng = random.Random(stream_seed)
    pool: dict[int, list] = {g: [] for g in BRAIDS_PER_CLASS}
    while any(len(pool[g]) < n for g, n in BRAIDS_PER_CLASS.items()):
        b = random_knot_braid(rng)
        pres = corpus.braid_cover(b)
        g = pres.ngens
        if g not in pool or len(pool[g]) >= BRAIDS_PER_CLASS[g]:
            continue
        if sum(map(len, pres.relators)) > MAX_RELATOR_LETTERS[g] or corpus.braid_det(b) == 1:
            continue
        pool[g].append(b)
    return pool


def pick() -> int:
    print("2-bridge companions (outer, inner):")
    for a, b in two_bridge_knots():
        print(f"  {a} {b}")
    print("braids (spec, determinant, cover generators, relator letters):")
    for gens, braids in sorted(braid_pool().items()):
        for b in braids:
            pres = corpus.braid_cover(b)
            print(f"  {corpus.braid_spec(b)!r}, {corpus.braid_det(b)}, {gens}, "
                  f"{sum(map(len, pres.relators))}")
    return 0


def main() -> int:
    if sys.argv[1:] == ["--pick"]:
        return pick()
    problems = check_inputs()
    for msg in problems:
        print(f"INPUT CHECK FAILED {msg}")
    if problems:
        return 1
    frozen_all = {}
    ok = True
    for name, build in sorted(workloads.SETUPS.items()):
        wl = build(random.Random(0), everything=True)
        frozen: dict[str, str] = {}
        res = run_pass(wl, {}, frozen=frozen)
        for msg in res.problems:
            print(f"{name}: CHECK FAILED {msg}")
            ok = False
        print(f"{name}: {len(wl.jobs)} jobs, {len(frozen)} values, "
              f"{res.wall_s:.1f} s", flush=True)
        frozen_all[name] = dict(sorted(frozen.items()))
    if not ok:
        return 1
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(frozen_all, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
