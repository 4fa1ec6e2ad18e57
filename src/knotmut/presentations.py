"""Finitely presented groups from braids, covers, and coset machinery.

Generators are numbered 1..ngens; words are tuples of nonzero integers
(negative for inverses), as in `freegroup`.  The main constructions:

  * knot_group: the braid-closure presentation < x_i | beta(x_i) x_i^-1 >
  * branched_cover_from_meridians: the fundamental group of the double
    branched cover, by Reidemeister-Schreier along the index-2 subgroup
    of the quotient by x_1^2; `quotients.Cover` checks that a diagram
    is a knot and builds its cover from its braid or its diagram
  * tietze_simplify: the generator elimination and substring moves of
    Havas, Kenne, Richardson and Robertson, "A Tietze transformation
    program" (Computational Group Theory, 1984), which leave covers
    with about as few generators whichever route built them
  * low_index_subgroups: coset-table backtracking that completes only
    the least table of each conjugacy class
  * subgroup presentations and abelianizations from any coset table of
    a transitive action, one forward image per generator and coset,
    through one Schreier transversal
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain

from .budget import MAX_TABLES, Budget
from .diagram import BraidWord, wirtinger_arcs
from .freegroup import artin_action, freely_reduce, inverse_word, substitute
from .matrices import abelian_invariants

Word = tuple[int, ...]


def _cyclic_reduce(word: Word) -> Word:
    w = freely_reduce(word)
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return w


@dataclass(frozen=True)
class GroupPresentation:
    ngens: int
    relators: tuple[Word, ...]

    def __post_init__(self):
        for r in self.relators:
            for g in r:
                if g == 0 or abs(g) > self.ngens:
                    raise ValueError(f"bad generator {g} in relator")

    def abelian_invariants(self) -> list[int]:
        # the one-coset table's Schreier generators are the generators
        return abelian_invariants(
            *abelianized_schreier_rows(self, [(0,) * self.ngens]))


def knot_group(braid: BraidWord) -> GroupPresentation:
    """Braid-closure presentation of the fundamental group of the complement."""
    images = artin_action(braid)
    rels = []
    for i, img in enumerate(images, start=1):
        r = _cyclic_reduce(img + (-i,))
        if r:
            rels.append(r)
    return GroupPresentation(braid.strands, tuple(rels))


def wirtinger_presentation(d) -> GroupPresentation:
    """Wirtinger presentation of a knot diagram's group.

    Generators are the overpass arcs; each crossing contributes the
    relation (outgoing under-arc) = o^e (incoming under-arc) o^-e with o
    the over-arc and e the crossing sign.  All generators are meridians.
    """
    if d.component_count() != 1:
        raise ValueError("diagram must be a knot")
    if not d.crossings:
        return GroupPresentation(1, ())
    arc_of = wirtinger_arcs(d)
    labels = sorted(set(arc_of.values()))
    gen = {a: i + 1 for i, a in enumerate(labels)}
    rels = []
    for x, pos in zip(d.crossings, d.positive):
        a, c, o = gen[arc_of[x[0]]], gen[arc_of[x[2]]], gen[arc_of[x[3]]]
        e = 1 if pos else -1
        r = _cyclic_reduce((o * e, a, -o * e, -c))
        if r:
            rels.append(r)
    return GroupPresentation(len(labels), tuple(rels))


# -- coset tables ---------------------------------------------------------
#
# A coset table is a list of rows, one per coset, with one entry per
# generator: table[c][k] is coset c times generator k+1.  Both
# Reidemeister-Schreier routes read it through one Schreier transversal
# (`_schreier_steps`) and differ only in their walk of the relators.


def _schreier_steps(g: GroupPresentation, table) -> tuple[list, int]:
    """Each generator's forward and inverse step on the table's cosets,
    and the number of Schreier generators.

    The spanning tree is the breadth-first tree from coset 0 along
    forward edges, which reach every coset of a finite transitive
    action, and each non-tree forward edge is a Schreier generator,
    numbered from 0 in breadth-first order.  A step is (columns, targets,
    sign): from coset c it crosses the edge numbered columns[c] (-1 on
    the tree) and moves to targets[c].  An inverse letter steps back
    along the generator's edge into c and reads that edge's number with
    sign -1.
    """
    if any(len(row) != g.ngens for row in table):
        raise ValueError(f"coset table rows must have {g.ngens} entries, "
                         "one image per generator")
    n = len(table)
    perms = list(zip(*table))
    col = [[-1] * n for _ in perms]  # number of edge (c, k); -1 on the tree
    seen = [True] + [False] * (n - 1)
    order = [0]
    nsg = 0
    for c in order:
        for k, d in enumerate(table[c]):
            if seen[d]:
                col[k][c] = nsg
                nsg += 1
            else:
                seen[d] = True
                order.append(d)
    if len(order) != n:
        raise ValueError("coset table is not transitive")
    steps = []
    for cols, p in zip(col, perms):
        back = [0] * n
        for c, d in enumerate(p):
            back[d] = c
        steps.append(((cols, p, 1), ([cols[b] for b in back], back, -1)))
    return steps, nsg


def reidemeister_schreier(g: GroupPresentation, table) -> GroupPresentation:
    """Presentation of the point stabilizer of coset 0.

    Generators are the Schreier generators of `_schreier_steps`, numbered
    from 1.  Relators are the rewrites of rep(c) r rep(c)^-1 for every
    relator r and coset c: the signed Schreier generators met along r
    read from c.
    """
    steps, nsg = _schreier_steps(g, table)
    rewrites = []
    for r in g.relators:
        letters = [steps[abs(x) - 1][x < 0] for x in r]
        for c in range(len(table)):
            cur = c
            out = []
            for cols, step, e in letters:
                j = cols[cur]
                if j >= 0:
                    out.append(e * (j + 1))
                cur = step[cur]
            if cur != c:
                raise ValueError("relator does not stabilize the coset")
            rewrites.append(_cyclic_reduce(tuple(out)))
    return GroupPresentation(nsg, tuple(dict.fromkeys(w for w in rewrites if w)))


def abelianized_schreier_rows(g: GroupPresentation, table
                              ) -> tuple[list[dict[int, int]], int]:
    """Relation rows of the coset-0 stabilizer's abelianization, and the
    number of columns, one per Schreier generator of `_schreier_steps`.

    Reading relator r from coset c counts the exponent sum of every
    column it crosses straight into the row of (r, c), the abelianized
    rewrite of rep(c) r rep(c)^-1: no word is rewritten or reduced.
    """
    steps, nsg = _schreier_steps(g, table)
    rows = []
    for r in g.relators:
        letters = [steps[abs(x) - 1][x < 0] for x in r]
        for c in range(len(table)):
            row: dict[int, int] = {}
            cur = c
            for cols, step, e in letters:
                j = cols[cur]
                if j >= 0:
                    row[j] = row.get(j, 0) + e
                cur = step[cur]
            if cur != c:
                raise ValueError("relator does not stabilize the coset")
            rows.append(row)
    return rows, nsg


def branched_cover_from_meridians(g: GroupPresentation) -> GroupPresentation:
    """Index-2 rewriting of a presentation whose generators are all
    meridians, after the squared meridian x_1^2 is added as a relator:
    the double branched cover when every meridian is conjugate to x_1."""
    g = GroupPresentation(g.ngens, g.relators + ((1, 1),))
    return reidemeister_schreier(g, [(1,) * g.ngens, (0,) * g.ngens])


def subgroup_abelianization(g: GroupPresentation, table) -> list[int]:
    """Abelian invariants of the coset-0 stabilizer, without Tietze steps."""
    return abelian_invariants(*abelianized_schreier_rows(g, table))


# -- Tietze simplification ------------------------------------------------

# a generator is eliminated only if substituting its image adds at most
# this many letters
MAX_RELATOR_LENGTH = 2000


def _cyclic_key(r: Word) -> Word:
    """The least rotation of `r` or its inverse: equal exactly for relators
    that agree up to rotation and inversion.  Only the rotations that
    start at the least letter can be the least."""
    best = r
    for w in (r, inverse_word(r)):
        m = min(w)
        for i, x in enumerate(w):
            if x == m:
                rot = w[i:] + w[:i]
                if rot < best:
                    best = rot
    return best


def _dedupe(rels: list[Word], keys: dict[Word, Word]) -> list[Word]:
    """The relators with repeats up to rotation and inversion dropped;
    `keys` caches each relator's `_cyclic_key` across calls."""
    seen = set()
    out = []
    for r in rels:
        key = keys.get(r)
        if key is None:
            key = keys[r] = _cyclic_key(r)
        if key not in seen:
            seen.add(key)
            out.append(r)
    return out


def _eliminate(rels: list[Word]) -> tuple[int, list[Word]] | None:
    """Eliminate one generator that occurs once in some relator.

    The shortest such relator r = u g^e v is dropped and g = (u^-1 v^-1)
    or (v u) substituted everywhere else, if that adds at most
    MAX_RELATOR_LENGTH letters.  Returns the generator and the new
    relators; None when no generator qualifies.
    """
    occ = Counter(map(abs, chain.from_iterable(rels)))
    for ri in sorted(range(len(rels)), key=lambda i: len(rels[i])):
        r = rels[ri]
        gen = next((x for x, c in Counter(map(abs, r)).items()
                    if c == 1 and (len(r) - 1) * (occ[x] - 1)
                    <= MAX_RELATOR_LENGTH), None)
        if gen is not None:
            break
    else:
        return None
    pos = next(i for i, letter in enumerate(r) if abs(letter) == gen)
    u, v = r[:pos], r[pos + 1:]
    image = {gen: freely_reduce(inverse_word(u) + inverse_word(v)
                                if r[pos] > 0 else v + u)}
    out = []
    for i, s in enumerate(rels):
        if i != ri:
            if gen in s or -gen in s:
                s = _cyclic_reduce(substitute(s, image))
            if s:
                out.append(s)
    return gen, out


def _substring_move(rels: list[Word]) -> list[Word] | None:
    """Shorten one relator by a long cyclic subword of another.

    If a cyclic subword w of s is a cyclic subword of r or r^-1 (for
    another relator r) of more than half its length, a rotation of r^+-1
    reads w u, so w = u^-1 and s can carry u^-1 instead of w: the
    relators generate the same normal subgroup, and s gets 2|w| - |r|
    letters shorter.  Every window of length |r|//2 + 1 of each r^+-1 is
    indexed, so each position of s takes one slice and one lookup per
    window length; a hit is extended as far as the words agree.  The
    move that saves the most letters is applied; None when there is none.
    """
    windows: dict[int, dict[Word, list]] = {}
    for ri, r in enumerate(rels):
        n = len(r)
        k = n // 2 + 1
        index = windows.setdefault(k, {})
        for w in (r, inverse_word(r)):
            ww = w + w
            for i in range(n):
                index.setdefault(ww[i:i + k], []).append((ri, ww, i, n))
    best = None
    for si, s in enumerate(rels):
        ns = len(s)
        ss = s + s
        for k, index in windows.items():
            if k > ns:
                continue
            for j in range(ns):
                hits = index.get(ss[j:j + k])
                if hits is None:
                    continue
                for ri, ww, i, n in hits:
                    if ri == si:
                        continue
                    m, top = k, min(ns, n)
                    while m < top and ss[j + m] == ww[i + m]:
                        m += 1
                    saved = 2 * m - n
                    if best is None or saved > best[0]:
                        best = (saved, si, j, m, ww[i + m:i + n])
    if best is None:
        return None
    _, si, j, m, u = best
    s = rels[si]
    rest = (s + s)[j + m:j + len(s)]
    new = _cyclic_reduce(inverse_word(u) + rest)
    out = rels[:si] + rels[si + 1:]
    if new:
        out.insert(si, new)
    return out


def tietze_simplify(g: GroupPresentation) -> GroupPresentation:
    """Shorten a presentation by Tietze transformations.

    The moves are those of Havas, Kenne, Richardson and Robertson, "A
    Tietze transformation program" (Computational Group Theory, 1984):
    relators repeated up to rotation and inversion are dropped, a
    generator that occurs once in some relator is eliminated (from the
    shortest such relator), and when no generator can be eliminated a
    relator is shortened by substituting a long common cyclic subword of
    another (`_substring_move`).  Each elimination removes a generator
    and each substring move removes letters, so the loop ends.  The
    substring moves undo most of the letters that elimination adds, so
    that a double branched cover keeps about as few generators whichever
    route (braid or Wirtinger presentation) built it.
    """
    rels = [r for r in map(_cyclic_reduce, g.relators) if r]
    eliminated: set[int] = set()
    keys: dict[Word, Word] = {}
    while True:
        rels = _dedupe(rels, keys)
        step = _eliminate(rels)
        if step is not None:
            gen, rels = step
            eliminated.add(gen)
            continue
        shorter = _substring_move(rels)
        if shorter is None:
            break
        rels = shorter

    # relabel surviving generators contiguously; one in no relator is a
    # free factor and stays
    used = [x for x in range(1, g.ngens + 1) if x not in eliminated]
    remap = {old: i + 1 for i, old in enumerate(used)}
    out = tuple(tuple((1 if letter > 0 else -1) * remap[abs(letter)]
                      for letter in r)
                for r in sorted(rels, key=lambda r: (len(r), r)))
    return GroupPresentation(len(used), out)


# -- low-index subgroups ---------------------------------------------------


def low_index_subgroups(g: GroupPresentation, max_index: int,
                        max_tables: int = MAX_TABLES
                        ) -> list[list[list[int]]]:
    """Complete coset tables of subgroups of index <= max_index.

    Returns one table per conjugacy class of subgroups (the class of the
    coset-0 stabilizer), including the whole group at index 1, in the
    module's format: one row per coset, one forward image per generator.
    Raises `ResourceLimitExceeded` once `max_tables` tables are tried or
    the enclosing `time_limit` has run out.

    Tables are built by backtracking (Sims, Computation with Finitely
    Presented Groups, 1994, ch. 5) on rows with 2*ngens entries, the
    image of generator k+1 at 2k and of its inverse at 2k+1: the first
    undefined entry, row by row, is set to each coset that can take it
    or to a new coset, and relator scans deduce what follows.  New
    cosets are so numbered in order of first appearance, and moving the
    basepoint to coset b and relabelling in breadth-first order gives
    the table of a conjugate subgroup.  A partial table that such a
    relabelling makes smaller before the first undefined entry of either
    is dropped, since every completion of it is too; only the least
    table of each class is completed.  Raises ValueError when
    `max_index` is below 1.
    """
    if max_index < 1:
        raise ValueError(f"max_index must be at least 1, not {max_index}")
    ncols = 2 * g.ngens
    # each relator as its columns and the inverse of each column
    rels = []
    for r in g.relators:
        cols = [2 * (abs(x) - 1) + (x < 0) for x in _cyclic_reduce(r)]
        if cols:
            rels.append((cols, [col ^ 1 for col in cols]))
    results: list[list[list[int]]] = []
    budget = Budget(max_tables, "tables tried",
                    lambda: f"{len(results)} subgroups found")

    def scan_relators(table) -> bool:
        """Propagate deductions; False on contradiction."""
        again = True
        while again:
            again = False
            for cols, icols in rels:
                for c in range(len(table)):
                    # scan forward then backward across the relator cycle
                    f, fi = c, 0
                    while fi < len(cols) and table[f][cols[fi]] is not None:
                        f = table[f][cols[fi]]
                        fi += 1
                    b, bi = c, len(cols)
                    while bi > fi and table[b][icols[bi - 1]] is not None:
                        b = table[b][icols[bi - 1]]
                        bi -= 1
                    if fi == bi:
                        if f != b:
                            return False
                    elif fi + 1 == bi:
                        # both scans stopped at this gap, so both of its
                        # entries are undefined: a deduction, no conflict
                        table[f][cols[fi]] = b
                        table[b][icols[fi]] = f
                        again = True
        return True

    def relabelled_smaller(table, base: int) -> bool:
        """Whether relabelling `table` by BFS from `base` makes it smaller,
        compared row by row before the first undefined entry of either."""
        label = [-1] * len(table)
        label[base] = 0
        order = [base]
        for r, c in enumerate(order):
            for d, old in zip(table[c], table[r]):
                if d is None or old is None:
                    return False
                new = label[d]
                if new < 0:
                    new = label[d] = len(order)
                    order.append(d)
                if new != old:
                    return new < old
        return False

    def first_hole(table):
        for c in range(len(table)):
            for col in range(ncols):
                if table[c][col] is None:
                    return c, col
        return None

    def recurse(table):
        budget.tick()
        hole = first_hole(table)
        if hole is None:
            results.append([row[0::2] for row in table])
            return
        c, col = hole
        candidates = [d for d in range(len(table))
                      if table[d][col ^ 1] is None]
        if len(table) < max_index:
            candidates.append(len(table))
        for d in candidates:
            t2 = [row[:] for row in table]
            if d == len(table):
                t2.append([None] * ncols)
            t2[c][col] = d
            t2[d][col ^ 1] = c
            if scan_relators(t2) and not any(
                    relabelled_smaller(t2, b) for b in range(1, len(t2))):
                recurse(t2)

    recurse([[None] * ncols])
    results.sort(key=len)
    return results
