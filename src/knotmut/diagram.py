"""Planar diagrams of knots and links, and braid closures.

A crossing is a 4-tuple of arc labels listed counterclockwise starting
from the incoming under-strand.  With crossing tuple (a, b, c, d):

  * a is the incoming under-arc, c the outgoing under-arc,
  * b and d form the over-strand,
  * the crossing is positive exactly when the over-strand runs d -> b.

Arcs are integers.  Every arc has exactly two endpoints among crossing
legs unless the component is a crossingless loop, which is tracked in
`free_loops`.

A `PlanarDiagram` carries its own orientation: it solves the over-strand
direction of every crossing once, when it is built, and keeps it in
`positive`, aligned with the `crossings` tuple.  The solve walks each
component once, so it also counts them.  Tuples that cannot be
oriented (an arc missing, repeated, or entered or left twice) or drawn
in the plane raise ValueError there, so every diagram that exists is
valid.  Diagrams are immutable except for `name`, a plain label and the
only field callers set.  Raw tangle crossings, whose strand directions
are not yet known, are oriented by `orient_raw` with the same solver.

A braid closure records its braid in `braid`, so that a knot's group can
be read off the braid it came from.  `relabel` and `cable(d, 1)` keep
it, `mirror` negates its letters, and every other constructor leaves it
`None`; it takes no part in equality.

The tuples do not fix the direction of a component that passes over at
every one of its crossings; the solver orients it by convention.
`relabel` and `mirror` keep the orientation of their input instead of
solving again, so `mirror` never reverses a component that its input
passes under everywhere.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain


Crossing = tuple[int, int, int, int]


@dataclass(frozen=True)
class BraidWord:
    """A braid word on `strands` strands; letter k means sigma_|k|^(sign k)."""

    strands: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if self.strands < 1:
            raise ValueError(f"a braid needs at least 1 strand, not {self.strands}")
        for k in self.letters:
            if k == 0 or abs(k) >= self.strands:
                raise ValueError(f"letter {k} invalid for {self.strands} strands")

    def inverse(self) -> "BraidWord":
        return BraidWord(self.strands, tuple(-k for k in reversed(self.letters)))

    def writhe(self) -> int:
        return sum(1 if k > 0 else -1 for k in self.letters)

    def permutation(self) -> list[int]:
        """Image of each strand position under the braid (bottom to top)."""
        perm = list(range(self.strands))
        for k in self.letters:
            i = abs(k) - 1
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
        return perm

    def component_count(self) -> int:
        perm = self.permutation()
        seen = [False] * self.strands
        n = 0
        for s in range(self.strands):
            if not seen[s]:
                n += 1
                while not seen[s]:
                    seen[s] = True
                    s = perm[s]
        return n


def parse_braid(text: str) -> BraidWord:
    """Parse 'strands | letters', e.g. '2 | 1 1 1' for the trefoil braid."""
    head, _, tail = text.partition("|")
    strands = int(head.strip())
    letters = tuple(int(t) for t in tail.split())
    return BraidWord(strands, letters)


class UnionFind(dict):
    """Disjoint sets over hashable items; an unseen item is its own class."""

    def find(self, a):
        while self.get(a, a) != a:
            self[a] = self.get(self[a], self[a])
            a = self[a]
        return a

    def union(self, a, b) -> None:
        """Merge the class of a into the class of b."""
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self[ra] = rb


def _other_ends(crossings) -> list[int]:
    """The position 4 * crossing + leg of the other end of each position's
    arc; ValueError on an arc that does not occur exactly twice."""
    other = [-1] * (4 * len(crossings))
    first: dict[int, int] = {}
    for p, a in enumerate(chain.from_iterable(crossings)):
        q = first.setdefault(a, p)
        if q != p:
            other[p], other[q] = q, p
    # an arc met once leaves a -1; without one, every arc has at least two
    # ends, so two per distinct arc means exactly two each
    if -1 in other or 2 * len(first) != len(other):
        for a, count in Counter(chain.from_iterable(crossings)).items():
            if count != 2:
                raise ValueError(f"arc {a} has {count} endpoints, expected 2")
    return other


def _orient(crossings: tuple[Crossing, ...], under_known: bool
            ) -> tuple[list[bool], int]:
    """Solve the strand directions at every crossing; also return the
    number of components walked, those with a crossing.

    Variable 2i says the under-strand of crossing i runs leg 0 -> 2, and
    variable 2i + 1 that its over-strand runs leg 3 -> 1.  Setting one
    variable fixes every variable of its link component, found by walking
    the component from leg to opposite leg.  PD input (`under_known`) has
    every under variable True, so each component with an under-passage is
    walked from its first one; raw tangle crossings leave them free.  The
    remaining components, free choices, set their lowest variable True.
    Raises ValueError on an arc that does not occur exactly twice, or on
    PD input that no orientation fits (an arc emitted or absorbed twice)
    or that has no drawing in the plane.
    """
    other = _other_ends(crossings)
    m = 2 * len(crossings)
    val: list[bool | None] = [None] * m
    walks = 0
    firsts = range(0, m, 2) if under_known else ()
    for k in [*firsts, *range(m)]:
        if val[k] is None:
            walks += 1
            # position p = 4 * crossing + leg; k is True exactly when the
            # strand is absorbed on leg 0 (under) or leg 3 (over)
            start = p = 2 * k + (k & 1)
            while True:
                val[2 * (p >> 2) + (p & 1)] = (p & 3) in (0, 3)
                p = other[p ^ 2]
                if p == start:
                    break
    if under_known:
        # fewer than two walks are the pieces themselves; more need union-find
        pieces = UnionFind()
        for p, q in enumerate(other if walks > 1 else ()):
            pieces.union(p >> 2, q >> 2)
        _faces(other, walks if walks < 2 else
               len({pieces.find(i) for i in range(m // 2)}))
    if under_known and not all(val[0::2]):
        i = val[0::2].index(False)
        raise ValueError(f"arc {crossings[i][0]} is emitted or absorbed twice")
    return val, walks


@dataclass
class PlanarDiagram:
    """An oriented link diagram, solved and checked when it is built.

    `positive[i]` is True when the over-strand of crossing i runs
    leg 3 -> leg 1.  The solve's walks plus the free loops are the
    link's components, kept for `component_count`.  `braid` is the braid
    whose closure this is, or None.  Only `name` may be reassigned.
    """

    crossings: tuple[Crossing, ...]
    free_loops: int = 0
    name: str = ""
    positive: tuple[bool, ...] = field(init=False, repr=False)
    _components: int = field(init=False, repr=False)
    braid: BraidWord | None = field(default=None, init=False, repr=False,
                                    compare=False)

    def __post_init__(self):
        crossings = tuple(self.crossings)
        val, walks = _orient(crossings, True)
        object.__setattr__(self, "crossings", crossings)
        object.__setattr__(self, "_components", walks + self.free_loops)
        object.__setattr__(self, "positive", tuple(val[1::2]))

    def __setattr__(self, key, value):
        if key != "name" and hasattr(self, "positive"):
            raise AttributeError(f"PlanarDiagram.{key} is fixed at construction")
        object.__setattr__(self, key, value)

    @property
    def arcs(self) -> set[int]:
        return {a for x in self.crossings for a in x}

    def fresh_arc_start(self) -> int:
        return max(self.arcs, default=-1) + 1

    def writhe(self) -> int:
        return sum(1 if p else -1 for p in self.positive)

    def validate(self):
        """Recount that every arc is the head once and the tail once."""
        heads: dict[int, int] = {}
        tails: dict[int, int] = {}
        for (a, b, c, d), pos in zip(self.crossings, self.positive):
            tails[a] = tails.get(a, 0) + 1
            heads[c] = heads.get(c, 0) + 1
            if pos:
                tails[d] = tails.get(d, 0) + 1
                heads[b] = heads.get(b, 0) + 1
            else:
                tails[b] = tails.get(b, 0) + 1
                heads[d] = heads.get(d, 0) + 1
        for a in self.arcs:
            if heads.get(a, 0) != 1 or tails.get(a, 0) != 1:
                raise ValueError(f"arc {a} has heads={heads.get(a,0)} tails={tails.get(a,0)}")

    def component_count(self) -> int:
        return self._components

    def __str__(self):
        parts = [f"X({a},{b},{c},{d})" for a, b, c, d in self.crossings]
        if self.free_loops:
            parts.append(f"O*{self.free_loops}")
        return " ".join(parts)


def faces(crossings) -> list[list[int]]:
    """The faces of a connected diagram in the plane, as cycles of corners.

    Corner 4i + k is the corner of crossing i between legs k and k + 1,
    counterclockwise.  A face is walked with it on the left: from corner
    4i + k along the arc of leg k to its other end, leg j of crossing y,
    then on from corner 4y + j - 1.  By Euler's formula a connected
    diagram with c crossings in the plane has c + 2 faces; any other
    count raises ValueError, as for a virtual or a split diagram.
    """
    return _faces(_other_ends(crossings), 1)


def _faces(other: list[int], pieces: int) -> list[list[int]]:
    """The corner cycles of `faces`, from the `_other_ends` table.  On a
    surface of genus g a connected piece of c crossings has c + 2 - 2g,
    so ValueError unless they number crossings + 2 * pieces."""
    n = len(other) >> 2
    seen = [False] * len(other)
    out = []
    for start in range(len(other)):
        if not seen[start]:
            face = []
            p = start
            while not seen[p]:
                seen[p] = True
                face.append(p)
                p = other[p] - 1 if other[p] & 3 else other[p] + 3
            out.append(face)
    if len(out) != n + 2 * pieces:
        raise ValueError(f"the diagram has {len(out)} faces, where a planar "
                         f"diagram with {n} crossings"
                         f"{f' in {pieces} pieces' if pieces > 1 else ''} "
                         f"has {n + 2 * pieces}")
    return out


def wirtinger_arcs(d: PlanarDiagram) -> dict[int, int]:
    """Map each edge to its Wirtinger arc (edges fused through overpasses)."""
    uf = UnionFind()
    for x in d.crossings:
        uf.union(x[1], x[3])
    return {a: uf.find(a) for a in d.arcs}


def _braid_crossings(letters, cur: list[int], next_arc: int) -> list[Crossing]:
    """Crossings of a braid word whose strands enter on the arcs `cur`.

    New arcs are numbered from `next_arc`, and `cur` is updated in place
    to the arcs leaving the top.
    """
    out: list[Crossing] = []
    for k in letters:
        i = abs(k) - 1
        alpha, beta = next_arc, next_arc + 1
        next_arc += 2
        if k > 0:
            # positive: strand at position i crosses over to position i+1;
            # under runs SE -> NW, tuple is CCW from the incoming under leg
            out.append((cur[i + 1], alpha, beta, cur[i]))
        else:
            out.append((cur[i], cur[i + 1], alpha, beta))
        cur[i], cur[i + 1] = beta, alpha
    return out


def braid_closure(braid: BraidWord, name: str = "") -> PlanarDiagram:
    """Trace closure of a braid, oriented upward on all strands."""
    n = braid.strands
    cur = list(range(n))  # arc currently at each strand position
    start = list(range(n))
    crossings = _braid_crossings(braid.letters, cur, n)
    # identify top arcs with the bottom arcs they close onto
    ident = {cur[i]: start[i] for i in range(n) if cur[i] != start[i]}
    free_loops = sum(1 for i in range(n) if cur[i] == start[i])

    def res(a: int) -> int:
        while a in ident:
            a = ident[a]
        return a

    fixed = [tuple(res(a) for a in x) for x in crossings]
    out = relabel(PlanarDiagram(fixed, free_loops, name))
    object.__setattr__(out, "braid", braid)
    return out


def relabel(d: PlanarDiagram) -> PlanarDiagram:
    """Relabel arcs to 0..n-1 preserving order of first appearance."""
    m: dict[int, int] = {}
    out = []
    for x in d.crossings:
        out.append(tuple(m.setdefault(a, len(m)) for a in x))
    return _carry(out, d, d.name, d.positive, d.braid)


def _carry(crossings, source: PlanarDiagram, name: str, positive,
           braid: BraidWord | None) -> PlanarDiagram:
    """A diagram built around an orientation that is already known, with
    the free loops and components of `source`.

    Only for maps that take a valid oriented diagram to a valid one, and
    that keep the direction of a component the tuples leave free:
    copying, renaming arcs, and mirroring with every sign flipped.
    """
    d = object.__new__(PlanarDiagram)
    d.__dict__.update(crossings=tuple(crossings), free_loops=source.free_loops,
                      name=name, positive=tuple(positive),
                      _components=source._components, braid=braid)
    return d


def mirror(d: PlanarDiagram) -> PlanarDiagram:
    """Switch every crossing (reflect through the projection plane)."""
    out: list[Crossing] = []
    for (a, b, c, dd), pos in zip(d.crossings, d.positive):
        # the old over-strand becomes the under-strand; rotate the tuple so
        # the new incoming under-arc leads
        if pos:
            out.append((dd, a, b, c))  # over ran d->b, so d is new under-in
        else:
            out.append((b, c, dd, a))
    # a component under at every crossing of d is over at every crossing
    # of the mirror, where the tuples leave its direction free
    b = None if d.braid is None else BraidWord(
        d.braid.strands, tuple(-k for k in d.braid.letters))
    return _carry(out, d, f"{d.name}*" if d.name else "",
                  (not p for p in d.positive), b)


def connected_sum(d1: PlanarDiagram, d2: PlanarDiagram,
                  arc1: int | None = None, arc2: int | None = None) -> PlanarDiagram:
    """Join two diagrams by cutting one arc of each and splicing."""
    if d1.free_loops or d2.free_loops:
        raise ValueError("connected sum of diagrams with free loops unsupported")
    if arc1 is None:
        arc1 = min(d1.arcs)
    if arc2 is None:
        arc2 = min(d2.arcs)
    shift = max(d1.arcs) + 1   # d2's arcs are renamed past d1's
    # cut arc1 (tail t1 -> head h1) and arc2 (t2 -> h2) and cross-wire:
    # t1 flows into h2 and t2 into h1; each arc is looked up in its own
    # diagram, so an arc of the other one is refused
    c1 = _reroute_heads(d1, {arc1: arc2 + shift})
    c2 = _reroute_heads(d2, {arc2: arc1 - shift})
    c2 = [tuple(a + shift for a in x) for x in c2]
    return relabel(PlanarDiagram(c1 + c2, 0, f"{d1.name}#{d2.name}"))


def _reroute_heads(d: PlanarDiagram, heads: dict[int, int]) -> list[Crossing]:
    """The crossings of d with the head end of each arc in `heads` renamed.

    An arc's head is the leg where it is absorbed: leg 0, or the
    over-strand's incoming leg (3 when the crossing is positive, else 1).
    """
    found = set()
    out = []
    for x, pos in zip(d.crossings, d.positive):
        y = list(x)
        for leg in (0, 3 if pos else 1):
            if x[leg] in heads:
                y[leg] = heads[x[leg]]
                found.add(x[leg])
        out.append(tuple(y))
    for a in heads:
        if a not in found:
            raise ValueError(f"arc {a} head not found")
    return out


def add_kink(d: PlanarDiagram, sign: int, arc: int | None = None) -> PlanarDiagram:
    """Insert a Reidemeister-1 kink of the given sign on an arc."""
    if not d.crossings:
        raise ValueError("cannot kink a crossingless diagram")
    if arc is None:
        arc = min(d.arcs)
    y = d.fresh_arc_start()
    z = y + 1
    new = _reroute_heads(d, {arc: z})
    if sign > 0:
        new.append((arc, z, y, y))
    else:
        new.append((arc, y, y, z))
    return PlanarDiagram(new, d.free_loops, d.name)


_PD_RE = re.compile(r"X\(\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*\)")
_LOOPS_RE = re.compile(r"O\*(\d+)\s*$")


def parse_pd(text: str, name: str = "") -> PlanarDiagram:
    """Parse 'X(a,b,c,d) X(e,f,g,h) ... O*k' planar diagram code, as
    `PlanarDiagram.__str__` writes it; the optional O*k counts free loops."""
    crossings = [tuple(int(g) for g in m.groups()) for m in _PD_RE.finditer(text)]
    loops = _LOOPS_RE.search(text)
    free_loops = int(loops[1]) if loops else 0
    if not crossings and not free_loops:
        raise ValueError(f"no crossings found in {text!r}")
    return relabel(PlanarDiagram(crossings, free_loops, name))


def orient_raw(raw: list[Crossing], free_loops: int = 0,
               name: str = "") -> PlanarDiagram:
    """Orient a diagram given only its unoriented crossing structure.

    Each raw tuple lists legs counterclockwise with the under-strand on
    the (0, 2) diagonal, but neither strand's direction is known.  Both
    are solved, and each tuple whose under-strand runs 2 -> 0 is rotated
    by two so that the incoming under-arc comes first.
    """
    under = _orient(tuple(raw), False)[0][0::2]
    out = [x if u else x[2:] + x[:2] for x, u in zip(raw, under)]
    return PlanarDiagram(out, free_loops, name)


# -- named small knots as braid closures --------------------------------

KNOT_BRAIDS = {
    "unknot": "1 |",
    "trefoil": "2 | 1 1 1",
    "trefoil_mirror": "2 | -1 -1 -1",
    "figure8": "3 | 1 -2 1 -2",
    "5_1": "2 | 1 1 1 1 1",
    "5_2": "3 | 1 1 1 2 -1 2",
    "6_1": "4 | 1 1 2 -1 -3 2 -3",
    "6_2": "3 | 1 1 1 -2 1 -2",
    "6_3": "3 | 1 1 -2 1 -2 -2",
    "hopf_plus": "2 | 1 1",
    "hopf_minus": "2 | -1 -1",
}


def named_knot(name: str) -> PlanarDiagram:
    if name not in KNOT_BRAIDS:
        raise KeyError(f"unknown knot {name!r}")
    return braid_closure(parse_braid(KNOT_BRAIDS[name]), name)


# -- knot-spec line format ------------------------------------------------
#
# One knot per line: `braid: <n> | <word>` or `pd: X(a,b,c,d) X(...) ...`,
# optionally prefixed with `name=<label>`.  Lines starting with # and
# blank lines are ignored by the file loader.


def parse_knot_spec(line: str) -> PlanarDiagram:
    """Parse a single knot-spec line into its diagram, named by the spec;
    a braid spec's diagram carries its braid."""
    text = line.strip()
    name = ""
    if text.startswith("name="):
        head, _, text = text.partition(" ")
        name = head[len("name="):]
        text = text.strip()
    if text.startswith("braid:"):
        body = text[len("braid:"):].strip()
        return braid_closure(parse_braid(KNOT_BRAIDS.get(body, body)), name)
    if text.startswith("pd:"):
        return parse_pd(text[len("pd:"):], name)
    if text in KNOT_BRAIDS:
        return braid_closure(parse_braid(KNOT_BRAIDS[text]), name or text)
    raise ValueError(f"unrecognized knot spec {line!r}")


def load_knot_file(path: str) -> list[PlanarDiagram]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            out.append(parse_knot_spec(line))
    return out
