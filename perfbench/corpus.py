"""Benchmark inputs, built through knotmut's public API only.

Three families of knots:

* pretzel mutant pairs P(p1, p2, p3, p4) / P(p1, p2, p4, p3), glued from
  four vertical twists and mutated with `mutate(td, "vertical")`;
* 2-bridge knots, the closure of two glued rational tangles, used as
  small satellite companions next to the named knots trefoil ... 6_3;
* 14-letter knot braids on 5 or 6 strands whose double-branched-cover
  presentation keeps at least 3 generators after Tietze.

Everything here is deterministic.  The benchmark's inputs are constants
in `workloads.py`; the searches that chose them (which filter by the
output of knotmut itself) live in `freeze.py`, so that a change to
knotmut cannot change which inputs the benchmark runs.
"""

from __future__ import annotations

import itertools
from math import prod

from knotmut import alexander, bracket, diagram, presentations, tangles

PRETZEL_CROSSINGS = (11, 13, 15)
MAX_TWIST = 7


def vertical_twist(n: int) -> tangles.Tangle:
    """A vertical twist of n crossings ([k] would be k curls, [0, k] T(2, k))."""
    if n == 0:
        raise ValueError("a vertical twist needs at least one crossing")
    return tangles.rational_tangle([0, 1, n - 1] if n > 0 else [0, -1, n + 1])


def pretzel_decomposition(p: tuple[int, ...]) -> tangles.TangleDecomposition:
    """Outer tangle p1 + p2 glued to inner tangle p3 + p4."""
    outer = tangles.tangle_sum(vertical_twist(p[0]), vertical_twist(p[1]))
    inner = tangles.tangle_sum(vertical_twist(p[2]), vertical_twist(p[3]))
    return tangles.TangleDecomposition(outer, inner)


def pretzel_det(p: tuple[int, ...]) -> int:
    """|sum_i prod_{j != i} p_j|, the determinant of P(p)."""
    return abs(sum(prod(p[j] for j in range(len(p)) if j != i)
                   for i in range(len(p))))


def dihedral_orbit(p: tuple[int, ...]) -> set[tuple[int, ...]]:
    out = set()
    for r in range(len(p)):
        q = p[r:] + p[:r]
        out.add(q)
        out.add(q[::-1])
    return out


def negate(p: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-x for x in p)


def vertical_mutant(p: tuple[int, ...]) -> tuple[int, ...]:
    """The tuple `mutate(pretzel_decomposition(p), "vertical")` realises."""
    return (p[0], p[1], p[3], p[2])


def mutant_pairs() -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every genuine pretzel mutant pair with 11-15 crossings, up to mirror.

    Twists are non-integral (|p_i| >= 2) and exactly one is even, so the
    closure is a knot.  A pair is kept only when the reordered tuple lies
    outside the dihedral orbit of the original, so the two knots differ.
    """
    seen: set[frozenset] = set()
    pairs = []
    vals = [v for v in range(-MAX_TWIST, MAX_TWIST + 1) if abs(v) >= 2]
    for p in itertools.product(vals, repeat=4):
        if sum(map(abs, p)) not in PRETZEL_CROSSINGS:
            continue
        if sum(1 for x in p if x % 2 == 0) != 1:
            continue
        if vertical_mutant(p) in dihedral_orbit(p):
            continue
        cls = pair_class(p)
        if cls not in seen:
            seen.add(cls)
            pairs.append((p, vertical_mutant(p)))
    return sorted(pairs, key=lambda pq: (sum(map(abs, pq[0])), pq))


def pair_class(p: tuple[int, ...]) -> frozenset:
    """The pair {P(p), its vertical mutant} up to dihedral symmetry and mirror."""
    def knot_class(t):
        return min(dihedral_orbit(t))

    pair = frozenset((knot_class(p), knot_class(vertical_mutant(p))))
    mirrored = frozenset(negate(t) for t in pair)
    return min(pair, mirrored, key=sorted)


def pretzel_pair(p: tuple[int, ...]):
    """(knot, its vertical mutant) as glued diagrams."""
    td = pretzel_decomposition(p)
    left = td.glue(f"P{p}")
    right = tangles.mutate(td, "vertical")
    right.name = f"P{vertical_mutant(p)}"
    return left, right


def check_nontrivial(d, det: int) -> None:
    """Reject unknots and diagrams whose determinant disagrees with `det`."""
    if d.component_count() != 1:
        raise ValueError(f"{d.name}: not a knot")
    if bracket.jones(d).is_one():
        raise ValueError(f"{d.name}: Jones polynomial is 1")
    if abs(alexander.alexander_pd(d)(-1)) != det:
        raise ValueError(f"{d.name}: |Alexander(-1)| != {det}")


# -- 2-bridge companions --------------------------------------------------


NAMED_COMPANIONS = ("trefoil", "figure8", "5_1", "5_2", "6_1", "6_2", "6_3")


def two_bridge_diagram(a, b):
    td = tangles.TangleDecomposition(tangles.rational_tangle(list(a)),
                                     tangles.rational_tangle(list(b)))
    return td.glue(f"2b{tuple(a)}{tuple(b)}")


# -- double branched covers ------------------------------------------------


def diagram_cover(d) -> presentations.GroupPresentation:
    """Double branched cover of a knot diagram (Wirtinger route), after Tietze."""
    return presentations.tietze_simplify(
        presentations.branched_cover_from_meridians(
            presentations.wirtinger_presentation(d)))


def braid_cover(b: diagram.BraidWord) -> presentations.GroupPresentation:
    """Double branched cover by the knot_group route, after Tietze."""
    return presentations.tietze_simplify(
        presentations.branched_cover_from_meridians(presentations.knot_group(b)))


def braid_det(b: diagram.BraidWord) -> int:
    return abs(alexander.alexander_braid(b)(-1))


def braid_spec(b: diagram.BraidWord) -> str:
    return f"{b.strands} | " + " ".join(map(str, b.letters))


def h1_order(invariants: list[int]) -> int:
    """|H1| from GAP-style abelian invariants; 0 when H1 is infinite."""
    return 0 if 0 in invariants else prod(invariants)
