"""Two-variable skein polynomials by switch/smooth resolution trees.

HOMFLY uses the (l, m) convention
    l P(L+) + l^-1 P(L-) = -m P(L0),   P(unknot) = 1,
so a k-component descending unlink evaluates to (-(l + l^-1)/m)^(k-1).

The Kauffman polynomial is computed in the Dubrovnik form
    D(L+) - D(L-) = z (D(L0) - D(Linf)),
a regular-isotopy invariant with D(curl+-) = a^(+-1) D, normalized to
F = a^(-writhe) D with F(unknot) = 1.

A node's state has no arc labels.  Its legs are positions
p = 4 * crossing + slot, and `o[p]` is the position at the other end of
the arc at p, so deleting crossings and joining their outer arcs is a few
writes to `o`.  A crossing's slots run counterclockwise, the even ones on
its under-strand.  The HOMFLY trees keep an oriented state: slot l holds
the crossing's PD leg l (0 the incoming under-strand), and each crossing
keeps its sign.  The Kauffman trees keep an unoriented state, since the
Dubrovnik relation needs no orientation: it has no signs, and slot 0 may
be either end of the under-strand.  A switch rotates the crossing's four
slots in place: by one, or by three at a negative crossing of an
oriented state so that slot 0 is the incoming under-strand again.  A
smoothing joins legs 0-1 and 2-3, or 0-3 and 1-2.  The signs that the
Kauffman trees need are read from positions: a curl's from its corner,
and a leaf's self-writhe from the slots at which its walks enter each
crossing (`_RDiagram.components_and_writhe`).  The planar-diagram
encoding of an isolated curl does not determine its handedness; its
slots do.

One recursion, `_tree`, runs both trees.  One node of a tree does, in
order: tick the budget; copy its parent's state with one move applied
(a switch, or a smoothing that deletes the crossing and joins its
arcs); reduce it; compact it into its memo key; look the key up; pick
the crossing to resolve; and combine its children's values by its state
class's relation (`resolve`).  A node's value comes with the framing
shift of the curls its reduction removed, which is zero in the HOMFLY
trees.

Before its memo lookup every node is reduced by Reidemeister-I and -II
moves: curls, and bigons in which one strand passes over the other at
both crossings.  Both are regular isotopies, so D changes only by
a^(+-1) per curl and P not at all.  Switching one crossing of a twist
region leaves such a bigon, which the tree would otherwise resolve in
full.  Only crossings at an arc changed by the last move are checked,
each at its four corners in slot order, and the order of the removals is
part of the tree: a different order can end in a different state.  A
deleted crossing is listed as dead; the node is then compacted by
dropping the dead crossings, the live ones keeping their order, so that
the memo key is the partner of every leg and the free loops, with the
signs in an oriented state.  The compaction looks every leg's new
position up in one table, and the key's tuple is the compacted state.

Descending diagrams are unlinks and are evaluated directly.  Otherwise
the trees resolve at a bad crossing: one that a basepoint traversal
reaches first on its under-strand, at an even slot (Freyd, Yetter,
Hoste, Lickorish, Millett & Ocneanu, Bull. AMS 12, 1985).  Each
component's traversal starts on the over-strand of the first crossing,
in crossing order, that no earlier traversal passed, just before it
enters that crossing: at its incoming over leg in an oriented state (3
when positive, 1 when negative), at slot 3 in an unoriented one.  The
basepoint thus depends only on the compacted state, never on how the
node was reached.  Of the bad crossings with an alternating bigon at a
corner (its strands over at different crossings), every tree resolves
the last in traversal order; with none, the first bad crossing.
Switching at such a bigon makes it a same-over bigon, which the child's
reduction deletes with both its crossings.  The trees terminate because
switching a bad crossing rotates its slots only, by an odd number: it
leaves every traversal and its start unchanged (a start is met on its
over-strand first, so it is never bad) and lowers the number of bad
crossings by exactly one, while smoothing and reduction lower the number
of crossings: (crossings, bad crossings) falls at every step.

Coefficients inside the trees are plain {e: int} dicts on packed
exponents e = e1 * w + e2 (see `_width`); every factor of the relations
is a monomial, applied as one integer shift of e, and a node's children
are combined in one pass over each child's terms.
"""

from __future__ import annotations

import sys
from math import comb
from operator import itemgetter

from .budget import MAX_NODES, Budget
from .budget import ResourceLimitExceeded  # noqa: F401 (re-export)
from .diagram import PlanarDiagram, _other_ends
from .laurent import LaurentPoly, LaurentPoly2
from .satellites import cable, whitehead_double

_ONE = {0: 1}
# delta_P = -(l + l^-1)/m
_DELTA_P = {(1, -1): -1, (-1, -1): -1}
# delta_F = (a - a^-1)/z + 1 in variables (a, z)
_DELTA_F = {(1, -1): 1, (-1, -1): -1, (0, 0): 1}


def _width(d: PlanarDiagram) -> int:
    """The width w of the packed exponents e = e1 * w + e2 of d's trees.

    Every y-degree e2 there is at most the crossings plus free loops of d
    in size (a smoothing raises it by one and a k-component unlink lowers
    it by k - 1), so it stays below w / 2 and e determines (e1, e2).
    """
    return 2 << (len(d.crossings) + d.free_loops).bit_length()


def _unpacked(p: dict, w: int, variables: tuple[str, str]) -> LaurentPoly2:
    """The polynomial of a dict on exponents packed with width w."""
    half = w >> 1
    out = {}
    for e, c in p.items():
        e2 = ((e + half) & (w - 1)) - half
        out[(e - e2) // w, e2] = c
    return LaurentPoly2(out, variables)


def _add_shifted(out: dict, p: dict, shift: int, c: int) -> None:
    """out += c * x^e1 y^e2 * p for shift = e1 * w + e2, in place; zero
    terms stay until the caller drops them."""
    get = out.get
    for e, v in p.items():
        e += shift
        out[e] = get(e, 0) + c * v


def _power_table(delta: dict, w: int):
    """k -> delta^k, packed with width w, grown on demand."""
    table = [_ONE]

    def power(k: int) -> dict:
        while len(table) <= k:
            out: dict = {}
            for (e1, e2), c in delta.items():
                _add_shifted(out, table[-1], e1 * w + e2, c)
            table.append({e: v for e, v in out.items() if v})
        return table[k]

    return power


# _SLOTS[s] = (s, s+1, s+2, s+3) mod 4: the slots counterclockwise from s.
_SLOTS = tuple(tuple((s + k) & 3 for k in range(4)) for s in range(4))
_FILL = (0, 0, 0, 0)
_new = object.__new__


class _RDiagram:
    """Oriented resolution state on leg positions p = 4 * crossing + slot,
    for the HOMFLY trees, which keep signs (`_UDiagram`, the Kauffman
    trees' state, keeps none).

    `o[p]` is the position at the other end of the arc at p, so an arc is
    a pair of positions and has no label.  Slot l of crossing i holds its
    PD leg l (0 is the incoming under-strand), so a move that puts an arc
    on another leg rotates the crossing's four slots in place.  `dirs[i]`
    is the sign of crossing i, None once it is deleted; `dead` lists the
    deleted crossings until `key()` drops them.  `touched` holds the
    crossings to check in `reduce()`.

    A node of a tree is a copy of its parent's state with one move
    applied (`switched`, `smoothed`), then `reduce()`, then
    `key()`, which compacts the state: the dead crossings are dropped,
    the live ones keep their order, and `o` becomes the key's own tuple
    (a move copies it into a list).  `first_bad` reads a compacted state.
    """

    __slots__ = ("o", "dirs", "free_loops", "touched", "dead")

    @classmethod
    def from_diagram(cls, d: PlanarDiagram) -> "_RDiagram":
        out = _new(cls)
        out.o = _other_ends(d.crossings)
        out.dirs, out.free_loops = list(d.positive), d.free_loops
        out.touched, out.dead = set(range(len(d.crossings))), []
        return out

    def copy(self) -> "_RDiagram":
        out = _new(type(self))
        out.o, out.dirs = list(self.o), self.dirs[:]
        out.free_loops, out.touched, out.dead = self.free_loops, set(), []
        return out

    def _compact(self) -> tuple:
        """Drop the dead crossings and return the compacted `o`.

        A position moves down by 4 per deleted crossing before its own;
        `m` maps every old position to its new one, and one itemgetter
        looks them all up.
        """
        o, dirs, dead = self.o, self.dirs, self.dead
        if dead:
            dead.sort()
            # the new positions, with four fillers where each deleted
            # crossing's slots were: they are never looked up
            m = list(range(len(o) - 4 * len(dead)))
            for d in dead:
                m[4 * d:4 * d] = _FILL
            for d in reversed(dead):
                del o[4 * d:4 * d + 4], dirs[d]
            self.o = o = itemgetter(*o)(m) if o else ()
            dead.clear()
        else:
            self.o = o = tuple(o)
        return o

    def key(self):
        """Compact the state and return its memo key: the partner of every
        leg, the signs and the free loops."""
        return self._compact(), tuple(self.dirs), self.free_loops

    def _rotate(self, k: int, r: int) -> None:
        """Move the arc on each leg l of crossing k to leg l + r.  No arc
        runs from k to k: only a reduced state is switched, which has no
        curl, and an arc between opposite slots has no planar drawing."""
        o = self.o
        q0, q1, q2, q3 = _SLOTS[r]
        b = 4 * k
        t0, t1, t2, t3 = o[b:b + 4]
        o[b + q0], o[b + q1], o[b + q2], o[b + q3] = t0, t1, t2, t3
        o[t0], o[t1], o[t2], o[t3] = b + q0, b + q1, b + q2, b + q3

    # -- Reidemeister-I and -II removal ------------------------------------

    def reduce(self) -> int:
        """Remove curls and same-over bigons at touched crossings.

        Returns the summed sign of the removed curls: a curl at an even
        corner is positive, since the strand through slots 0 and 1 of a
        positive crossing of an oriented state can loop, and a half-turn
        of the slots keeps the parity of a corner.  A new curl or
        bigon has a new arc as a side, so a join touches one end of the
        arc it makes, and a switch its crossing.  Every touched crossing
        is checked at all four corners, in slot order, and the first
        curl or bigon found there is removed; a bigon whose changed side
        is the over-arc is found only that way.  The crossings touched
        by one round of removals are checked in the next.
        """
        o, dirs, dead = self.o, self.dirs, self.dead
        curl = 0
        touched = self.touched
        while touched:
            todo, touched = touched, set()
            for i in todo:
                if dirs[i] is None:
                    continue
                b = 4 * i
                t0, t1, t2, t3 = o[b:b + 4]
                # corner s lies between slots s and s+1, whose arcs run to
                # t and u.  It is a curl when the arcs are one (u is slot
                # s), and a same-over bigon when u is the slot before t at
                # another crossing and the legs at the ends of the arc at
                # s have equal parity.  Either way u is the slot before t:
                # t ^ u < 4 and (t - u) & 3 == 1.
                if t0 ^ t1 < 4 and (t0 - t1) & 3 == 1 and \
                        (not t0 & 1 or t1 == b):
                    s, t = 0, t0
                elif t1 ^ t2 < 4 and (t1 - t2) & 3 == 1 and \
                        (t1 & 1 or t2 == b + 1):
                    s, t = 1, t1
                elif t2 ^ t3 < 4 and (t2 - t3) & 3 == 1 and \
                        (not t2 & 1 or t3 == b + 2):
                    s, t = 2, t2
                elif t3 ^ t0 < 4 and (t3 - t0) & 3 == 1 and \
                        (t3 & 1 or t0 == b + 3):
                    s, t = 3, t3
                else:
                    continue
                _, _, s2, s3 = _SLOTS[s]
                if (s ^ t) & 1:
                    # the strand through slots s2, s and s+1, s3 loops
                    # back, and closes when slot s2 runs to s3
                    curl += -1 if s & 1 else 1
                    dirs[i] = None
                    dead.append(i)
                    a, c = o[b + s2], o[b + s3]
                    if a == b + s3:
                        self.free_loops += 1
                    else:
                        o[a], o[c] = c, a
                        touched.add(a >> 2)
                else:
                    # a bigon to crossing j: slot s runs to its slot
                    # q = t & 3, and slot s+1 to its slot q-1
                    j, c = t >> 2, t & -4
                    dirs[i] = dirs[j] = None
                    dead += (i, j)
                    self._join(b + s2, c + ((t + 2) & 3),
                               b + s3, c + ((t + 1) & 3), touched)
        self.touched = touched
        return curl

    def _join(self, u: int, v: int, x: int, y: int, touched) -> None:
        """Join the arcs at u and v, then those at x and y.

        The four positions are legs of crossings just deleted, and the
        crossing at one end of each new arc is touched.  The legs of the
        deleted crossings that no pair names must be joined to each other
        by arcs.
        """
        o, dirs = self.o, self.dirs
        a, c = o[u], o[v]
        if dirs[a >> 2] is None or dirs[c >> 2] is None:
            self._join_through(((u, v), (x, y)), touched)
            return
        o[a], o[c] = c, a
        touched.add(a >> 2)
        a, c = o[x], o[y]
        if dirs[a >> 2] is None or dirs[c >> 2] is None:
            # the first pair had live ends, so no arc runs to it
            self._join_through(((x, y),), touched)
            return
        o[a], o[c] = c, a
        touched.add(a >> 2)

    def _join_through(self, pairs, touched) -> None:
        """Join pairs when an arc runs from one deleted leg to another.

        Each pair's strand is followed through the other pairs to a live
        end on both sides; a strand that comes back closes a free loop.
        """
        o = self.o
        link = {}
        for u, v in pairs:
            link[u], link[v] = v, u
        for u, v in pairs:
            if u not in link:
                continue  # followed from an earlier pair
            del link[u], link[v]
            ends = []
            for p in (u, v):
                a = o[p]
                while a in link:
                    w = link.pop(a)
                    del link[w]
                    a = o[w]
                ends.append(a)
            a, c = ends
            if a == v:
                self.free_loops += 1
            else:
                o[a], o[c] = c, a
                touched.add(a >> 2)

    # -- skein moves -------------------------------------------------------

    def switched(self, i: int) -> "_RDiagram":
        """Switch crossing i and its sign: the arc on leg l moves to leg
        l + 1 (positive) or l + 3, so that leg 0 is the incoming under-
        strand again."""
        out = self.copy()
        dr = out.dirs[i]
        out._rotate(i, 1 if dr else 3)
        out.dirs[i] = not dr
        out.touched.add(i)
        return out

    def smoothed(self, i: int, across: bool) -> "_RDiagram":
        """Delete crossing i and join its legs 0-1 and 3-2, or with
        `across` its legs 0-3 and 1-2."""
        out = self.copy()
        b = 4 * i
        out.dirs[i] = None
        out.dead.append(i)
        if across:
            out._join(b, b + 3, b + 1, b + 2, out.touched)
        else:
            out._join(b, b + 1, b + 3, b + 2, out.touched)
        return out

    def resolve(self, i: int, value, w: int) -> dict:
        """P of this state from the values of its children at crossing i,
        the switch and the orientation-respecting smoothing.

        Positive: P+ = -l^-2 P- - l^-1 m P0; negative: the same with l
        inverted.
        """
        s = -w if self.dirs[i] else w
        sw, t = value(self.switched(i))
        t += 2 * s
        res = {e + t: -v for e, v in sw.items()}
        sm, t = value(self.smoothed(i, not self.dirs[i]))
        _add_shifted(res, sm, t + s + 1, -1)
        return res

    # -- descending analysis ---------------------------------------------

    def first_bad(self) -> int | None:
        """The crossing to resolve, or None when no crossing is bad.

        A bad crossing is entered first at an even slot, on its under-
        strand, by the basepoint walks; each walk enters the first
        crossing not yet passed on its over-strand (see the module
        docstring).  Of the bad crossings, in walk order, the last with
        an alternating bigon at a corner is returned, else the first one:
        switching at the bigon leaves a same-over bigon, which the child's
        `reduce()` deletes with both its crossings.
        """
        o, dirs = self.o, self.dirs
        passed = bytearray(len(dirs))
        first = freeing = None
        k = passed.find(0)
        while k >= 0:
            start = p = 4 * k + (3 if dirs[k] else 1)
            while True:
                i = p >> 2
                if not passed[i]:
                    passed[i] = 1
                    if not p & 1:
                        # a bigon at a corner as in `reduce`, on another
                        # crossing, with legs of unequal parity at the ends
                        # of the arc at its first slot
                        b = p & -4
                        t0, t1, t2, t3 = o[b:b + 4]
                        if t0 ^ t1 < 4 and (t0 - t1) & 3 == 1 and \
                                t0 & 1 and t0 >> 2 != i or \
                                t1 ^ t2 < 4 and (t1 - t2) & 3 == 1 and \
                                not t1 & 1 and t1 >> 2 != i or \
                                t2 ^ t3 < 4 and (t2 - t3) & 3 == 1 and \
                                t2 & 1 and t2 >> 2 != i or \
                                t3 ^ t0 < 4 and (t3 - t0) & 3 == 1 and \
                                not t3 & 1 and t3 >> 2 != i:
                            freeing = i
                        elif first is None:
                            first = i
                p = o[p ^ 2]
                if p == start:
                    break
            k = passed.find(0, k)
        return first if freeing is None else freeing

    def components_and_writhe(self) -> tuple[int, int]:
        """The number of components of the crossings and their summed
        self-writhe.

        Each component is walked once, and enters each of its own
        crossings once at an under slot and once at an over slot.  The
        crossing is positive when these are slots 0 and 3 or slots 2 and
        1, the legs of a positive crossing of an oriented state walked
        one way or the other: when slots 0 and 3 are both entered or
        neither is.
        """
        o = self.o
        comp = [-1] * len(o)
        entered = bytearray(len(o))
        n = 0
        for start in range(len(o)):
            if comp[start] < 0:
                p = start
                while comp[p] < 0:
                    comp[p] = comp[p ^ 2] = n
                    entered[p] = 1
                    p = o[p ^ 2]
                n += 1
        return n, sum(1 if entered[b] == entered[b + 3] else -1
                      for b in range(0, len(o), 4) if comp[b] == comp[b + 1])


class _UDiagram(_RDiagram):
    """Unoriented resolution state, for the Kauffman trees.

    The positions, `o`, `dead`, `touched` and the compaction are those of
    `_RDiagram`, but no slot is known to be incoming and no crossing keeps
    a sign: `dirs[i]` is True while crossing i lives, None once it is
    deleted, and the memo key is `o` and the free loops alone.  A switch
    always rotates by one, so a crossing's slot labels depend only on how
    often it was switched, never on an orientation, and every walk starts
    at slot 3.  The moves are `switched` and `smoothed`.
    """

    __slots__ = ()

    @classmethod
    def from_diagram(cls, d: PlanarDiagram) -> "_UDiagram":
        out = super().from_diagram(d)
        out.dirs = [True] * len(out.dirs)
        return out

    def key(self):
        """Compact the state and return its memo key: the partner of every
        leg and the free loops."""
        return self._compact(), self.free_loops

    def switched(self, i: int) -> "_UDiagram":
        """Switch crossing i: the arc on leg l moves to leg l + 1."""
        out = self.copy()
        out._rotate(i, 1)
        out.touched.add(i)
        return out

    def resolve(self, i: int, value, w: int) -> dict:
        """D of this state from the values of its children at crossing i,
        by the positional Dubrovnik relation
        D(cur) = D(switched) + z (D(merge 01,23) - D(merge 03,12))."""
        sw, s = value(self.switched(i))
        res = {e + s: v for e, v in sw.items()}
        sa, s = value(self.smoothed(i, False))
        _add_shifted(res, sa, s + 1, 1)
        sb, s = value(self.smoothed(i, True))
        _add_shifted(res, sb, s + 1, -1)
        return res


def _tree(d: PlanarDiagram, state: type, delta: dict, framed: bool,
          variables: tuple[str, str], max_nodes: int | None) -> LaurentPoly2:
    """The polynomial of d by the resolution tree of `state`'s relation.

    delta is the value of a 2-component unlink.  A framed polynomial (D)
    gains a^(+-1) per curl, and is normalized by a^(-writhe) at the root;
    an unframed one (P) is an ambient-isotopy invariant, unchanged by both.
    """
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 20000))
    memo: dict = {}
    hits = 0
    budget = Budget(max_nodes, "nodes expanded",
                    lambda: f"{len(memo)} memo entries, {hits} memo hits")
    tick = budget.tick
    w = _width(d)
    cw = w if framed else 0  # the shift of e per unit of writhe
    unlink = _power_table(delta, w)

    def value(rd: _RDiagram) -> tuple[dict, int]:
        """(the value of rd's reduced state, k * cw): rd's value is a^k
        times the first, where k sums the signs of the curls that
        reduce() removed."""
        nonlocal hits
        tick()
        curl = rd.reduce() * cw
        key = rd.key()
        if not rd.dirs:
            return unlink(rd.free_loops - 1) if rd.free_loops else _ONE, curl
        res = memo.get(key)
        if res is not None:
            hits += 1
            return res, curl
        i = rd.first_bad()
        if i is None:
            n, writhe = rd.components_and_writhe()
            s = writhe * cw
            res = {e + s: v for e, v in unlink(n + rd.free_loops - 1).items()}
        else:
            res = rd.resolve(i, value, w)
            if 0 in res.values():
                res = {e: v for e, v in res.items() if v}
        memo[key] = res
        return res, curl

    res, curl = value(state.from_diagram(d))
    s = curl - d.writhe() * cw
    return _unpacked({e + s: v for e, v in res.items()}, w, variables)


def homfly(d: PlanarDiagram, max_nodes: int | None = MAX_NODES) -> LaurentPoly2:
    """HOMFLY polynomial in (l, m), unknot normalized to 1."""
    return _tree(d, _RDiagram, _DELTA_P, False, ("l", "m"), max_nodes)


def kauffman_f(d: PlanarDiagram,
               max_nodes: int | None = MAX_NODES) -> LaurentPoly2:
    """Kauffman polynomial, Dubrovnik form, in (a, z); unknot gives 1."""
    return _tree(d, _UDiagram, _DELTA_F, True, ("a", "z"), max_nodes)


def alexander_from_homfly(p: LaurentPoly2) -> LaurentPoly:
    """Alexander polynomial via P(l=i, m=i(t^(1/2)-t^(-1/2))).

    Powers of i cancel for knots (P has even total degree pattern), and
    half-integer powers of t cancel likewise; the result is normalized
    so that it is symmetric with value 1 at t=1 by construction.
    """
    # work in s = t^(1/2); i^(e1+e2) with e1+e2 even
    acc: dict[int, int] = {}
    for (e1, e2), coef in p.coeffs.items():
        if (e1 + e2) % 2 != 0:
            raise ValueError("unexpected parity in HOMFLY of a knot")
        ipow = (e1 + e2) % 4
        sign = 1 if ipow == 0 else -1
        # m^e2 = i^e2 (s - s^-1)^e2 : expand binomially
        for k in range(e2 + 1):
            exp = e2 - 2 * k
            c = comb(e2, k) * ((-1) ** k)
            acc[exp] = acc.get(exp, 0) + sign * coef * c
    half = LaurentPoly("s", acc)
    return half.shrink(2, "t")


def cjones3_from_kauffman(f: LaurentPoly2) -> LaurentPoly:
    """J_K(3) in q via F(a = q^2, z = q - q^-1).

    The vector representation of so(3) is the 3-dimensional one of
    U_q(sl2), and the so(N) vector invariant is the Kauffman polynomial
    (Turaev, Invent. Math. 92, 1988).  Only a link's F has a negative
    z-degree, and that is refused.
    """
    acc: dict[int, int] = {}
    for (e1, e2), coef in f.coeffs.items():
        if e2 < 0:
            raise ValueError("negative z-degree: a link's Kauffman polynomial")
        # z^e2 = (q - q^-1)^e2 : expand binomially
        for k in range(e2 + 1):
            exp = 2 * e1 + e2 - 2 * k
            acc[exp] = acc.get(exp, 0) + coef * comb(e2, k) * (-1) ** k
    return LaurentPoly("q", acc)


def p_whitehead_plus(d: PlanarDiagram,
                     max_nodes: int | None = MAX_NODES) -> LaurentPoly2:
    """HOMFLY of the 0-framed, positive-clasp Whitehead double of d."""
    return homfly(whitehead_double(d), max_nodes)


def homfly_2cable(d: PlanarDiagram,
                  max_nodes: int | None = MAX_NODES) -> LaurentPoly2:
    """HOMFLY of the blackboard 2-cable with one negative half-twist."""
    return homfly(cable(d, 2, -1), max_nodes)
