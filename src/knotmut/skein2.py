"""Two-variable skein polynomials by switch/smooth resolution trees.

HOMFLY uses the (l, m) convention
    l P(L+) + l^-1 P(L-) = -m P(L0),   P(unknot) = 1,
so a k-component descending unlink evaluates to (-(l + l^-1)/m)^(k-1).

The Kauffman polynomial is computed in the Dubrovnik form
    D(L+) - D(L-) = z (D(L0) - D(Linf)),
a regular-isotopy invariant with D(curl+-) = a^(+-1) D, normalized to
F = a^(-writhe) D with F(unknot) = 1.

Both engines resolve at the first crossing that is reached on its
under-strand during a basepoint traversal; descending diagrams are
unlinks and are evaluated directly.  Before its memo lookup every node is
reduced by Reidemeister-I and -II moves: curls, and bigons in which one
strand passes over the other at both crossings.  Both are regular
isotopies, so D changes only by a^(+-1) per curl and P not at all.
Switching one crossing of a twist region leaves such a bigon, which the
tree would otherwise resolve in full.  Only crossings that hold an arc
changed by the last move are checked.

Crossing orientations are tracked locally through every move (never
re-derived globally), because the planar-diagram encoding of an isolated
curl does not determine its handedness.  Coefficients are plain
{(e1, e2): int} dicts inside the trees; every factor of the relations
is a monomial, applied as an exponent shift.
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


class _RDiagram:
    """Resolution state: crossing tuples with locally tracked over-dirs.

    A deleted crossing leaves a None hole, so positions stay valid:
    `ends[a]` holds the positions 4 * i + leg of arc a's two endpoints.
    `touched` holds the arcs renamed or moved since the last `reduce()`.
    """

    __slots__ = ("crossings", "dirs", "ends", "free_loops", "touched")

    def __init__(self, crossings, dirs, ends, free_loops, touched):
        self.crossings = crossings
        self.dirs = dirs
        self.ends = ends
        self.free_loops = free_loops
        self.touched = touched

    @classmethod
    def from_diagram(cls, d: PlanarDiagram) -> "_RDiagram":
        ends: dict[int, tuple[int, ...]] = {}
        for i, x in enumerate(d.crossings):
            for leg, a in enumerate(x):
                ends[a] = ends.get(a, ()) + (4 * i + leg,)
        return cls(list(d.crossings), list(d.positive), ends, d.free_loops,
                   set(ends))

    def copy(self) -> "_RDiagram":
        return _RDiagram(list(self.crossings), list(self.dirs),
                         dict(self.ends), self.free_loops, set())

    def key(self):
        flat = [a for x in self.crossings if x is not None for a in x]
        index = dict(zip(dict.fromkeys(flat), range(len(flat))))
        return (tuple(map(index.__getitem__, flat)),
                tuple(dr for dr in self.dirs if dr is not None),
                self.free_loops)

    def writhe(self) -> int:
        return sum(1 if dr else -1 for dr in self.dirs if dr is not None)

    def _head(self, a: int) -> int:
        """Position at which arc a is absorbed."""
        p, q = self.ends[a]
        leg = p & 3
        # leg 0 absorbs, and leg 3 at a positive crossing, leg 1 otherwise
        if leg == 0 or (leg & 1 and (leg == 3) == self.dirs[p >> 2]):
            return p
        return q

    def _rotate(self, k: int, r: int):
        """Turn crossing k's tuple so that the arc on leg l moves to l + r."""
        x = self.crossings[k]
        self.crossings[k] = x[-r:] + x[:-r]
        base = 4 * k
        for a in set(x):
            self.ends[a] = tuple(base + ((p + r) & 3) if p >> 2 == k else p
                                 for p in self.ends[a])

    def _next(self, a: int) -> int:
        """The arc that follows a along its component."""
        p = self._head(a)
        return self.crossings[p >> 2][(p & 3) ^ 2]

    # -- Reidemeister-I and -II removal ------------------------------------

    def reduce(self) -> int:
        """Remove curls and same-over bigons near touched arcs.

        Returns the summed sign of the removed curls.  Every crossing that
        holds a touched arc is checked on all four legs; a bigon whose
        changed side is the over-arc is found only that way.
        """
        cs, ends = self.crossings, self.ends
        curl = 0
        while self.touched:
            todo = {p >> 2 for a in self.touched for p in ends.get(a, ())}
            self.touched = set()
            for i in todo:
                if cs[i] is not None:
                    curl += self._reduce_at(i)
        return curl

    def _reduce_at(self, i: int) -> int:
        """Remove a curl at crossing i, or a bigon with a corner at i."""
        cs, ends = self.crossings, self.ends
        x = cs[i]
        if len(set(x)) < 4:
            for p in range(4):
                if x[p] == x[(p + 1) & 3]:
                    # the strand through legs p+2, p and p+1, p+3 loops back
                    sign = 1 if self.dirs[i] else -1
                    self._remove((i,), ((x[(p + 2) & 3], x[(p + 3) & 3]),))
                    return sign
        base = 4 * i
        for p in range(4):
            # arc x[p] runs to leg q of crossing j; the corner between legs
            # p and p+1 at i is a bigon when x[p+1] returns to leg q-1 of
            # j, and one strand is over at both when p, q have equal parity
            u, v = ends[x[p]]
            other = v if u == base + p else u
            q = other & 3
            if (p ^ q) & 1:
                continue
            j = other >> 2
            y = cs[j]
            if j != i and x[(p + 1) & 3] == y[(q - 1) & 3]:
                self._remove((i, j), ((x[(p + 2) & 3], y[(q + 2) & 3]),
                                      (x[(p + 3) & 3], y[(q + 1) & 3])))
                return 0
        return 0

    def _remove(self, idxs, pairs):
        """Delete crossings, then join arc ends pairwise.

        Each pair names two arcs whose ends met at deleted crossings; the
        first is renamed to the second.  A pair whose arcs are already
        one closes a crossingless loop.
        """
        cs, ends = self.crossings, self.ends
        for i in idxs:
            for a in cs[i]:
                # keep the end away from i; an arc met twice here (a curl)
                # or already cut at another deleted crossing is dropped
                e = ends.pop(a, ())
                if len(e) == 2:
                    ends[a] = e[1:] if e[0] >> 2 == i else e[:1]
            cs[i] = None
            self.dirs[i] = None
        alias: dict[int, int] = {}
        for u, v in pairs:
            while u in alias:
                u = alias[u]
            while v in alias:
                v = alias[v]
            if u == v:
                self.free_loops += 1
                continue
            alias[u] = v
            moved = ends.pop(u, ())
            for p in moved:
                x = list(cs[p >> 2])
                x[p & 3] = v
                cs[p >> 2] = tuple(x)
            if moved:
                ends[v] = ends.get(v, ()) + moved
            self.touched.add(v)

    # -- skein moves -------------------------------------------------------

    def switched(self, i: int) -> "_RDiagram":
        out = self.copy()
        dr = out.dirs[i]
        out._rotate(i, 1 if dr else 3)
        out.dirs[i] = not dr
        out.touched.update(out.crossings[i])
        return out

    def smoothed_oriented(self, i: int) -> "_RDiagram":
        """Orientation-respecting smoothing (both strands keep direction)."""
        out = self.copy()
        a, b, c, d = out.crossings[i]
        # join a->b and d->c, or a->d and b->c
        out._remove((i,), ((b, a), (c, d)) if out.dirs[i] else ((d, a), (c, b)))
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
        x = out.crossings[i]
        # reverse the strand segment from the over-out leg back around to
        # the crossing, then the merge is orientation-respecting
        path = []
        cur = x[1] if dr else x[3]
        while True:
            path.append(cur)
            p = out._head(cur)
            if p >> 2 == i:
                break
            cur = out.crossings[p >> 2][(p & 3) ^ 2]
        out._reverse_arcs(set(path), skip=i)
        if btype:
            pairs = ((x[3], x[0]), (x[2], x[1]))  # join 0-3 and 1-2
        else:
            pairs = ((x[1], x[0]), (x[3], x[2]))  # join 0-1 and 2-3
        out._remove((i,), pairs)
        return out

    def _reverse_arcs(self, arcs: set[int], skip: int):
        """Reverse the orientation of the given arcs (one strand segment)."""
        for k in {p >> 2 for a in arcs for p in self.ends[a]} - {skip}:
            x = self.crossings[k]
            under = x[0] in arcs or x[2] in arcs
            if under:
                self._rotate(k, 2)
            if under != (x[1] in arcs or x[3] in arcs):
                self.dirs[k] = not self.dirs[k]

    # -- descending analysis ---------------------------------------------

    def first_bad(self) -> int | None:
        """Index of the first crossing met on its under-strand, else None."""
        cs = self.crossings
        seen_arc: set[int] = set()
        visited: set[int] = set()
        for start in sorted(self.ends):
            cur = start
            while cur not in seen_arc:
                seen_arc.add(cur)
                p = self._head(cur)
                i, leg = p >> 2, p & 3
                if i not in visited:
                    if leg == 0:
                        return i
                    visited.add(i)
                cur = cs[i][leg ^ 2]
        return None

    def _components(self) -> dict[int, int]:
        """Component number of every arc."""
        comp: dict[int, int] = {}
        n = 0
        for start in self.ends:
            if start not in comp:
                cur = start
                while cur not in comp:
                    comp[cur] = n
                    cur = self._next(cur)
                n += 1
        return comp

    def component_count(self) -> int:
        comp = self._components()
        return len(set(comp.values())) + self.free_loops

    def self_writhe(self) -> int:
        """Sum of crossing signs over same-component crossings."""
        comp = self._components()
        w = 0
        for x, dr in zip(self.crossings, self.dirs):
            if x is not None and comp[x[0]] == comp[x[3] if dr else x[1]]:
                w += 1 if dr else -1
        return w


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
        if not rd.ends:
            return unlink(rd.free_loops - 1) if rd.free_loops else _ONE
        key = rd.key()
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
    rd = _RDiagram.from_diagram(d)
    total_writhe = rd.writhe()
    memo: dict = {}
    budget = Budget(budget_seconds, max_nodes, "nodes expanded",
                    lambda: f"{len(memo)} memo entries")
    unlink = _power_table(_DELTA_F)

    def dvalue(rd: _RDiagram) -> dict:
        budget.tick()
        curl = rd.reduce()
        if not rd.ends:
            res = unlink(rd.free_loops - 1) if rd.free_loops else _ONE
            return _shifted(res, curl) if curl else res
        key = rd.key()
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

    return LaurentPoly2(_shifted(dvalue(rd), -total_writhe), ("a", "z"))


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
