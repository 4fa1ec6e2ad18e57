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
writes to `o`.  Slot l of a crossing holds its PD leg l (0 the incoming
under-strand), and each crossing keeps its sign.  A switch, or a strand
reversed by an unoriented smoothing, puts the arcs of a crossing on other
legs: its four slots rotate in place, by one for a switch and by two for
an under passage of a reversed strand.  Signs are tracked locally through
every move (never re-derived globally), because the planar-diagram
encoding of an isolated curl does not determine its handedness.

Before its memo lookup every node is reduced by Reidemeister-I and -II
moves: curls, and bigons in which one strand passes over the other at
both crossings.  Both are regular isotopies, so D changes only by
a^(+-1) per curl and P not at all.  Switching one crossing of a twist
region leaves such a bigon, which the tree would otherwise resolve in
full.  Only crossings at an arc changed by the last move are checked.
A deleted crossing's slots hold -1; the node is then compacted by
dropping them, the live crossings keeping their order, so that the memo
key is the partner of every leg, with the signs and the free loops.

Descending diagrams are unlinks and are evaluated directly.  Otherwise
the trees resolve at a bad crossing: one that a basepoint traversal
reaches first on its under-strand (Freyd, Yetter, Hoste, Lickorish,
Millett & Ocneanu, Bull. AMS 12, 1985).  Each component's traversal
starts on the over-strand of the first crossing, in crossing order, that
no earlier traversal passed, just before it enters that crossing.  The
basepoint thus depends only on the compacted state, never on how the
node was reached.  Of the bad crossings, in traversal order, the first
with an alternating bigon at a corner (its strands over at different
crossings) is resolved, else the first bad crossing: switching at such a
bigon makes it a same-over bigon, which the child's reduction deletes
with both its crossings.  The trees terminate because switching any bad
crossing leaves every traversal and its start unchanged (a start is met
on its over-strand first, so it is never bad) and lowers the number of
bad crossings by exactly one, while smoothing and reduction lower the
number of crossings: (crossings, bad crossings) falls at every step.
Coefficients are plain {(e1, e2): int} dicts inside the trees; every
factor of the relations is a monomial, applied as an exponent shift.
"""

from __future__ import annotations

import sys
from math import comb

from .budget import Budget, ResourceLimitExceeded  # noqa: F401 (re-export)
from .diagram import PlanarDiagram
from .laurent import LaurentPoly, LaurentPoly2
from .satellites import cable, whitehead_double

_ONE = {(0, 0): 1}
# delta_P = -(l + l^-1)/m
_DELTA_P = {(1, -1): -1, (-1, -1): -1}
# delta_F = (a - a^-1)/z + 1 in variables (a, z)
_DELTA_F = {(1, -1): 1, (-1, -1): -1, (0, 0): 1}


def _add_shifted(out: dict, p: dict, s1: int, s2: int, c: int) -> None:
    """out += c * x^s1 y^s2 * p, in place."""
    for (e1, e2), v in p.items():
        k = (e1 + s1, e2 + s2)
        out[k] = out.get(k, 0) + c * v


def _shifted(p: dict, s1: int) -> dict:
    """x^s1 * p."""
    return {(e1 + s1, e2): v for (e1, e2), v in p.items()}


def _nonzero(p: dict) -> dict:
    return {k: v for k, v in p.items() if v}


def _power_table(delta: dict):
    """k -> delta^k, grown on demand."""
    table = [_ONE]

    def power(k: int) -> dict:
        while len(table) <= k:
            out: dict = {}
            for (s1, s2), c in delta.items():
                _add_shifted(out, table[-1], s1, s2, c)
            table.append(_nonzero(out))
        return table[k]

    return power


# _SLOTS[s] = (s, s+1, s+2, s+3) mod 4: the slots counterclockwise from s.
_SLOTS = tuple(tuple((s + k) & 3 for k in range(4)) for s in range(4))


class _RDiagram:
    """Resolution state on leg positions p = 4 * crossing + slot.

    `o[p]` is the position at the other end of the arc at p, so an arc is
    a pair of positions and has no label.  Slot l of crossing i holds its
    PD leg l (0 is the incoming under-strand), so a move that puts an arc
    on another leg rotates the crossing's four slots in place.  `dirs[i]`
    is the sign of crossing i, None once it is deleted; a deleted
    crossing's slots hold -1 until `key()` drops them.  `touched` holds
    the crossings to check in `reduce()`.

    `key()` compacts the state: deleted crossings are dropped and the
    live ones keep their order.  `first_bad` reads a compacted state.
    """

    __slots__ = ("o", "dirs", "free_loops", "touched")

    def __init__(self, o, dirs, free_loops, touched):
        self.o = o
        self.dirs = dirs
        self.free_loops = free_loops
        self.touched = touched

    @classmethod
    def from_diagram(cls, d: PlanarDiagram) -> "_RDiagram":
        o = [0] * (4 * len(d.crossings))
        first: dict[int, int] = {}
        for i, x in enumerate(d.crossings):
            for leg, a in enumerate(x):
                p = 4 * i + leg
                q = first.pop(a, None)
                if q is None:
                    first[a] = p
                else:
                    o[p], o[q] = q, p
        return cls(o, list(d.positive), d.free_loops,
                   set(range(len(d.crossings))))

    def copy(self) -> "_RDiagram":
        return _RDiagram(self.o[:], self.dirs[:], self.free_loops, set())

    def key(self):
        """Compact the state and return its memo key: the partner of every
        leg, the signs and the free loops.

        The -1 slots of deleted crossings are dropped in one pass, and
        every other position moves down by 4 per deleted crossing before
        its own.
        """
        o, dirs = self.o, self.dirs
        if None in dirs:
            shift, n = [], 0
            for dr in dirs:
                shift.append(n)
                if dr is None:
                    n += 4
            self.o = o = [p - shift[p >> 2] for p in o if p >= 0]
            self.dirs = dirs = [dr for dr in dirs if dr is not None]
        return tuple(o), tuple(dirs), self.free_loops

    def _rotate(self, k: int, r: int) -> None:
        """Move the arc on each leg l of crossing k to leg l + r."""
        o, b = self.o, 4 * k
        for s, p in enumerate(o[b:b + 4]):
            if p >> 2 == k:
                p = b + ((p + r) & 3)
            q = b + ((s + r) & 3)
            o[q], o[p] = p, q

    # -- Reidemeister-I and -II removal ------------------------------------

    def reduce(self) -> int:
        """Remove curls and same-over bigons at touched crossings.

        Returns the summed sign of the removed curls.  A new curl or
        bigon has a new arc as a side, so a join touches one end of the
        arc it makes, and a switch its crossing.  Every touched crossing
        is checked at all four corners; a bigon whose changed side is
        the over-arc is found only that way.
        """
        dirs = self.dirs
        curl = 0
        while self.touched:
            todo, self.touched = self.touched, set()
            for i in todo:
                if dirs[i] is not None:
                    curl += self._reduce_at(i)
        return curl

    def _reduce_at(self, i: int) -> int:
        """Remove a curl at crossing i, or a bigon with a corner at i."""
        o = self.o
        b = 4 * i
        for s, s1, s2, s3 in _SLOTS:
            t = o[b + s]
            j = t >> 2
            if j == i:
                if t == b + s1:
                    # the strand through slots s2, s and s1, s3 loops back
                    sign = 1 if self.dirs[i] else -1
                    self._remove((i,), ((b + s2, b + s3),))
                    return sign
                continue
            # the arc at slot s runs to slot q of crossing j; the corner
            # between slots s and s+1 at i is a bigon when slot s+1 returns
            # to slot q-1 of j, and one strand is over at both when the
            # legs at the ends of the arc have equal parity
            if (s ^ t) & 1:
                continue
            c = t & -4
            _, q1, q2, q3 = _SLOTS[t & 3]
            if o[b + s1] == c + q3:
                self._remove((i, j), ((b + s2, c + q2), (b + s3, c + q1)))
                return 0
        return 0

    def _remove(self, idxs, pairs):
        """Delete crossings, then join arc ends pairwise.

        Each pair names two positions on the deleted crossings whose
        arcs become one.  The legs of the deleted crossings that no pair
        names must be joined to each other by arcs.
        """
        o, dirs = self.o, self.dirs
        for i in idxs:
            dirs[i] = None
        for n, (u, v) in enumerate(pairs):
            a, c = o[u], o[v]
            if dirs[a >> 2] is None or dirs[c >> 2] is None:
                # the pairs before had live ends, so no arc runs to them
                self._join_through(pairs[n:])
                break
            o[a], o[c] = c, a
            self.touched.add(a >> 2)
        for i in idxs:
            o[4 * i:4 * i + 4] = (-1, -1, -1, -1)

    def _join_through(self, pairs):
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
                self.touched.add(a >> 2)

    # -- skein moves -------------------------------------------------------

    def switched(self, i: int) -> "_RDiagram":
        out = self.copy()
        dr = out.dirs[i]
        # the arc on leg l moves to leg l + 1 (positive) or l + 3
        out._rotate(i, 1 if dr else 3)
        out.dirs[i] = not dr
        out.touched.add(i)
        return out

    def smoothed_oriented(self, i: int) -> "_RDiagram":
        """Orientation-respecting smoothing (both strands keep direction)."""
        out = self.copy()
        b = 4 * i
        # join legs 0-1 and 3-2, or 0-3 and 1-2
        out._remove((i,), ((b, b + 1), (b + 3, b + 2)) if out.dirs[i]
                    else ((b, b + 3), (b + 1, b + 2)))
        return out

    def smoothed_unoriented(self, i: int, btype: bool) -> "_RDiagram":
        """Merge legs {0,1} and {2,3} (btype=False) or {0,3} and {1,2}.

        One of the two choices reverses a strand; orientation flags along
        the reversed path are repaired locally.
        """
        dr = self.dirs[i]
        compatible = (not btype) if dr else btype
        if compatible:
            return self.smoothed_oriented(i)
        out = self.copy()
        o, dirs = out.o, out.dirs
        b = 4 * i
        # reverse the strand segment from the over-out leg back around to
        # the crossing, then the merge is orientation-respecting: each
        # passage flips the sign, and an under passage (an even leg) turns
        # the crossing by two legs so that leg 0 is the incoming
        # under-strand again.  The turns move positions, so they wait
        # until the walk is done.
        passages = []
        p = o[b + (1 if dr else 3)]
        while p >> 2 != i:
            passages.append(p)
            p = o[p ^ 2]
        for p in passages:
            k = p >> 2
            dirs[k] = not dirs[k]
            if not p & 1:
                out._rotate(k, 2)
        out._remove((i,), ((b, b + 3), (b + 1, b + 2)) if btype
                    else ((b, b + 1), (b + 2, b + 3)))
        return out

    # -- descending analysis ---------------------------------------------

    def first_bad(self) -> int | None:
        """The crossing to resolve, or None when no crossing is bad.

        A bad crossing is met first on its under-strand by the basepoint
        walks; each walk enters the first crossing not yet passed on its
        over-strand (see the module docstring).  Of the bad crossings, in
        walk order, the first with an alternating bigon at a corner is
        returned, else the first one: switching at the bigon leaves a
        same-over bigon, which the child's `reduce()` deletes with both
        its crossings.
        """
        o, dirs = self.o, self.dirs
        passed = bytearray(len(dirs))
        first = None
        for k in range(len(dirs)):
            if passed[k]:
                continue
            start = p = 4 * k + (3 if dirs[k] else 1)
            while True:
                i = p >> 2
                if not passed[i]:
                    if not p & 3:
                        if self._alternating_bigon(i):
                            return i
                        if first is None:
                            first = i
                    passed[i] = 1
                p = o[p ^ 2]
                if p == start:
                    break
        return first

    def _alternating_bigon(self, i: int) -> bool:
        """Whether a corner of crossing i is a bigon whose strands are
        over at different crossings."""
        o, b = self.o, 4 * i
        for s, s1, _, _ in _SLOTS:
            t = o[b + s]
            # as in `_reduce_at`, with legs of unequal parity
            if (s ^ t) & 1 and t >> 2 != i and \
                    o[b + s1] == (t & -4) + ((t - 1) & 3):
                return True
        return False

    def _components(self) -> tuple[list[int], int]:
        """Component number at every position, and the number of them."""
        o = self.o
        comp = [-1] * len(o)
        n = 0
        for start in range(len(o)):
            if comp[start] < 0:
                p = start
                while comp[p] < 0:
                    comp[p] = comp[p ^ 2] = n
                    p = o[p ^ 2]
                n += 1
        return comp, n

    def component_count(self) -> int:
        return self._components()[1] + self.free_loops

    def self_writhe(self) -> int:
        """Sum of crossing signs over same-component crossings."""
        comp = self._components()[0]
        return sum(1 if dr else -1 for i, dr in enumerate(self.dirs)
                   if comp[4 * i] == comp[4 * i + 1])


def homfly(d: PlanarDiagram, budget_seconds: float | None = None,
           max_nodes: int | None = 2_000_000) -> LaurentPoly2:
    """HOMFLY polynomial in (l, m), unknot normalized to 1."""
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 20000))
    memo: dict = {}
    budget = Budget(budget_seconds, max_nodes, "nodes expanded",
                    lambda: f"{len(memo)} memo entries")
    unlink = _power_table(_DELTA_P)

    def value(rd: _RDiagram) -> dict:
        budget.tick()
        rd.reduce()  # ambient isotopy: curls and bigons are free
        key = rd.key()
        if not rd.dirs:
            return unlink(rd.free_loops - 1) if rd.free_loops else _ONE
        hit = memo.get(key)
        if hit is not None:
            return hit
        i = rd.first_bad()
        if i is None:
            res = unlink(rd.component_count() - 1)
        else:
            sw = value(rd.switched(i))
            sm = value(rd.smoothed_oriented(i))
            # positive: P+ = -l^-2 P- - l^-1 m P0; negative: the same
            # with l inverted
            s = -1 if rd.dirs[i] else 1
            out: dict = {}
            _add_shifted(out, sw, 2 * s, 0, -1)
            _add_shifted(out, sm, s, 1, -1)
            res = _nonzero(out)
        memo[key] = res
        return res

    return LaurentPoly2(value(_RDiagram.from_diagram(d)))


def kauffman_f(d: PlanarDiagram, budget_seconds: float | None = None,
               max_nodes: int | None = 2_000_000) -> LaurentPoly2:
    """Kauffman polynomial, Dubrovnik form, in (a, z); unknot gives 1."""
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 20000))
    memo: dict = {}
    budget = Budget(budget_seconds, max_nodes, "nodes expanded",
                    lambda: f"{len(memo)} memo entries")
    unlink = _power_table(_DELTA_F)

    def dvalue(rd: _RDiagram) -> dict:
        budget.tick()
        curl = rd.reduce()
        key = rd.key()
        if not rd.dirs:
            res = unlink(rd.free_loops - 1) if rd.free_loops else _ONE
            return _shifted(res, curl) if curl else res
        res = memo.get(key)
        if res is None:
            i = rd.first_bad()
            if i is None:
                res = _shifted(unlink(rd.component_count() - 1),
                               rd.self_writhe())
            else:
                # positional Dubrovnik relation:
                # D(cur) = D(switched) + z (D(merge 01,23) - D(merge 03,12))
                sw = dvalue(rd.switched(i))
                sa = dvalue(rd.smoothed_unoriented(i, btype=False))
                sb = dvalue(rd.smoothed_unoriented(i, btype=True))
                out = dict(sw)
                _add_shifted(out, sa, 0, 1, 1)
                _add_shifted(out, sb, 0, 1, -1)
                res = _nonzero(out)
            memo[key] = res
        return _shifted(res, curl) if curl else res

    return LaurentPoly2(_shifted(dvalue(_RDiagram.from_diagram(d)),
                                 -d.writhe()), ("a", "z"))


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


def p_whitehead_plus(d: PlanarDiagram, budget_seconds: float | None = None,
                     max_nodes: int | None = 2_000_000) -> LaurentPoly2:
    """HOMFLY of the 0-framed, positive-clasp Whitehead double of d."""
    w = d.writhe()
    dbl = whitehead_double(d, -w, 1)
    return homfly(dbl, budget_seconds, max_nodes)


def homfly_2cable(d: PlanarDiagram, budget_seconds: float | None = None,
                  max_nodes: int | None = 2_000_000) -> LaurentPoly2:
    """HOMFLY of the blackboard 2-cable with one negative half-twist."""
    return homfly(cable(d, 2, -1), budget_seconds, max_nodes)
