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
order: tick the budget; build its state in one step from its parent's
with one move applied (a switch, a smoothing that deletes the crossing
and joins its arcs, or the rewiring of a twist region, below); reduce
it; return the unlink value if no crossing is left, before the state is
compacted or keyed; compact it into its memo key; look the key up; pick
the crossing to resolve; and combine its children's values by its state
class's relation (`resolve`) or by a twist region's closed form
(`resolve_twist`).  A node's value comes with the framing shift of the curls
its reduction removed, which is zero in the HOMFLY trees.  Values are
shared, never mutated: a memo entry, an unlink power and a child's
value taken with no shift are one dict.

A memo lives only while its tree runs; at the paper's scale it takes
about 1.7 kB per entry.  When the tree ends, with a value or on its
budget, the memo is cleared, and the budget's `progress()` keeps the
final memo entries and hits.  A stopped tree's `ResourceLimitExceeded`
carries those counts in its message, but not the recursion's frames.

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
reduction deletes with both its crossings.

A crossing so picked lies in a twist region: the run of crossings linked
by bigons through its first bigon corner in slot order and through the
opposite corner, each neighbour adding the bigon at its far corner.  In
a reduced state every bigon is alternating, and a region's bigons all
sit at corners of one parity.  A closed chain, a whole T(2, n)
component, leaves its last crossing out.  A region of k >= 3 crossings
is resolved in one node.  Its last crossing c_k is its end on the side
of the first bigon corner.  Along, at a crossing with its bigon at
corner r, joins r-(r+3) and (r+1)-(r+2); across joins r-(r+1) and
(r+2)-(r+3).  The children are T_1, every crossing but c_k smoothed
along; T_0, all k along; and T_inf, all but c_k along and c_k across,
each built by rewiring the region's four outer legs in one step.
Resolving c_k leaves T_(k-2) by its switch, and T_(k-1) or T_inf with
k - 1 curls by its smoothings, so the value is alpha_k T_1 + beta_k T_0
+ gamma_k T_inf, with coefficients that follow recurrences in k from
alpha = (0, 1), beta = (1, 0) and gamma = (0, 0) at k = 0 and 1
(`_twist_coeffs`, which gives them in closed form):
  - Kauffman: x_j = x_(j-2) + eps z x_(j-1), where gamma_j also gains
    -eps z a^((j-1) sigma).  eps = 1 when along is the 01,23 merge (at
    odd corners), and sigma = -eps is the sign of the curls;
  - HOMFLY, with lambda = l^-1 at a positive region and l at a negative
    one: x_j = -lambda^2 x_(j-2) - lambda m x_(j-1) when the strands are
    parallel.  When they are antiparallel, x_j = -lambda^2 x_(j-2), and
    gamma_j also gains -lambda m; only the one of T_1 and T_0 of k's
    parity has a nonzero coefficient, and it is oriented as the state.
The coefficients depend only on k, the region's sign and its corners'
parity; a tree builds them once for each, and frees them with its memo.
A twist step is one node and ticks the budget once, so "nodes expanded"
counts resolution steps.  At k = 2 the closed form is the crossing's own
relation, which the tree keeps.  Keeping the region's first crossing in
T_1 in place of its last makes trees grow.

The trees terminate because switching a bad crossing rotates its slots
only, by an odd number: it leaves every traversal and its start
unchanged (a start is met on its over-strand first, so it is never bad)
and lowers the number of bad crossings by exactly one, while smoothing
and reduction lower the number of crossings, and every child of a twist
step has at least k - 1 fewer crossings than its parent: (crossings, bad
crossings) falls at every step.

Coefficients inside the trees are plain {e: int} dicts on packed
exponents e = e1 * w + e2 (see `_width`); every factor of a crossing's
relation is a monomial, applied as one integer shift of e, and a node's
children are combined in one pass over each child's terms, or one per
term of a twist region's coefficient.

The readings of a finished polynomial, the Alexander and Jones
polynomials off HOMFLY and J_K(3) off Kauffman, substitute into it by
one pass over its terms (`_specialize`).
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


def _twist_coeffs(k: int, a: tuple, b: tuple | None,
                  c: tuple | None) -> tuple:
    """(alpha_k, beta_k, gamma_k), packed, of the recurrences
    x_j = a x_(j-2) + b x_(j-1) from (x_0, x_1) = (0, 1), (1, 0) and, with
    the monomial c_j added, (0, 0).  a and b are monomials (shift,
    coefficient), and b may be absent; c = (shift, step, coefficient)
    gives c_j the shift shift + (j - 1) * step, or is absent.

    alpha_n sums C(n-1-i, i) a^i b^(n-1-2i) over i, the ways to climb
    n - 1 steps by twos and ones; beta_k = a alpha_(k-1), and gamma_k sums
    c_j alpha_(k+1-j) over j = 2..k.
    """
    (ea, va), (eb, vb) = a, b or (0, 0)

    def alpha(n: int, e0: int, v0: int, out: dict) -> dict:
        """out += v0 x^e0 alpha_n."""
        for i in range((n + 1) // 2):
            m = n - 1 - 2 * i
            if m and not vb:
                continue
            e = e0 + i * ea + m * eb
            out[e] = out.get(e, 0) + v0 * comb(n - 1 - i, i) * va**i * vb**m
        return out

    gamma: dict = {}
    if c:
        for j in range(2, k + 1):
            alpha(k + 1 - j, c[0] + (j - 1) * c[1], c[2], gamma)
    return alpha(k, 0, 1, {}), alpha(k - 1, ea, va, {}), gamma


def _chain(o, c: int, r: int) -> list:
    """[c_1, r_1, c_2, r_2, ...]: the crossings met from corner r of
    crossing c across alternating bigons, each with its far corner, up to
    one whose far corner has no such bigon, or back to c.  Across the
    bigon at corner r, slot r runs to the neighbour's slot q, and the
    neighbour's corners on the bigon and opposite it are q - 1 and q + 1.
    """
    out = []
    start = c
    while True:
        b = 4 * c
        t, u = o[b + r], o[b + ((r + 1) & 3)]
        if not (t ^ u < 4 and (t - u) & 3 == 1 and (t ^ r) & 1 and
                t >> 2 != c):
            return out
        c, r = t >> 2, (t + 1) & 3
        out += (c, r)
        if c == start:
            return out


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
    crossings to check in `reduce()`.  `first_bad` sets `twist` to the
    picked crossing's twist region when it has k >= 3 crossings, else to
    None.

    A node of a tree is its parent's state with one move applied, built
    in one step (`switched`, `smoothed`, `rewired`: `o` and `dirs` are
    copied into new lists and the move is written into them), then
    `reduce()`, then, unless no crossing is left, `key()`, which compacts
    the state: the dead crossings are dropped, the live ones keep their
    order, and `o` becomes the key's own tuple.  `first_bad` reads a
    compacted state.
    """

    __slots__ = ("o", "dirs", "free_loops", "touched", "dead", "twist")
    signed = True  # the memo key holds the signs

    @classmethod
    def from_diagram(cls, d: PlanarDiagram) -> "_RDiagram":
        out = _new(cls)
        out.o = _other_ends(d.crossings)
        out.dirs, out.free_loops = list(d.positive), d.free_loops
        out.touched, out.dead = set(range(len(d.crossings))), []
        return out

    def key(self):
        """Compact the state and return its memo key: the partner of every
        leg, then the signs in an oriented state, then the free loops.

        The dead crossings are dropped and the live ones keep their order.
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
        if self.signed:
            return o, tuple(dirs), self.free_loops
        return o, self.free_loops

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
        out = _new(_RDiagram)
        out.o, out.dirs = list(self.o), self.dirs[:]
        out.free_loops, out.touched, out.dead = self.free_loops, {i}, []
        dr = self.dirs[i]
        out._rotate(i, 1 if dr else 3)
        out.dirs[i] = not dr
        return out

    def smoothed(self, i: int, across: bool) -> "_RDiagram":
        """Delete crossing i and join its legs 0-1 and 3-2, or with
        `across` its legs 0-3 and 1-2."""
        out = _new(type(self))
        out.o, out.dirs = list(self.o), self.dirs[:]
        out.dirs[i] = None
        out.free_loops, out.touched, out.dead = self.free_loops, set(), [i]
        b = 4 * i
        if across:
            out._join(b, b + 3, b + 1, b + 2, out.touched)
        else:
            out._join(b, b + 1, b + 3, b + 2, out.touched)
        return out

    def rewired(self, dead, u: int, v: int, x: int, y: int) -> "_RDiagram":
        """Delete the crossings in `dead` and join their legs u-v and x-y
        (see `_join`)."""
        out = _new(type(self))
        dirs = self.dirs[:]
        for c in dead:
            dirs[c] = None
        out.o, out.dirs = list(self.o), dirs
        out.free_loops, out.touched, out.dead = \
            self.free_loops, set(), list(dead)
        out._join(u, v, x, y, out.touched)
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

    @staticmethod
    def _twist_terms(positive: bool, odd: bool, w: int) -> tuple:
        """The monomials (a, b, c) of `_twist_coeffs` for a twist region of
        sign `positive` whose bigons are at corners of parity `odd`.

        With lambda = l^-1 (positive) or l, switching the last crossing
        leaves T_(k-2), and the oriented smoothing T_(k-1) when the strands
        are parallel, T_inf with k - 1 curls when they are antiparallel:
        P(T_j) = -lambda^2 P(T_(j-2)) - lambda m P(T_(j-1)) or
        -lambda^2 P(T_(j-2)) - lambda m P(T_inf).  The oriented smoothing
        (`resolve`) runs along at an odd corner of a positive crossing and
        at an even corner of a negative one.
        """
        s = -w if positive else w
        if positive == odd:
            return (2 * s, -1), (s + 1, -1), None
        return (2 * s, -1), None, (s + 1, 0, -1)

    def resolve_twist(self, value, w: int, forms: dict) -> dict:
        """The value of this state from those of the children of its
        `twist`: alpha_k T_1 + beta_k T_0 + gamma_k T_inf, each child built
        in one step and skipped when its coefficient is zero.  `forms`
        holds the coefficients of each (k, sign, corner parity)."""
        key, children = self.twist
        coeffs = forms.get(key)
        if coeffs is None:
            coeffs = forms[key] = _twist_coeffs(
                key[0], *self._twist_terms(key[1], key[2], w))
        res = None
        for coeff, child in zip(coeffs, children):
            if coeff:
                val, t = value(self.rewired(*child))
                for e, c in coeff.items():
                    if res is None:
                        e += t
                        res = {x + e: c * v for x, v in val.items()}
                    else:
                        _add_shifted(res, val, e + t, c)
        return res

    # -- descending analysis ---------------------------------------------

    def _twist_region(self, i: int, s: int, near: bool) -> None:
        """Set `twist` to the twist region of crossing i, whose first
        alternating bigon is at corner s, when it has k >= 3 crossings
        (see the module docstring); `near` says whether the opposite
        corner has a bigon from a third crossing.

        `twist` is ((k, sign, corner parity), children), with the children
        T_1, T_0 and T_inf as `rewired` arguments.  c_1 is the region's
        end away from c_k.  On T_0's two strands, the first legs of c_1's
        outer corner, of c_(k-1)'s corner towards c_k and of c_k's outer
        corner lie on one strand and the second legs on the other.
        """
        o = self.o
        right = _chain(o, i, s)
        if right[-2] == i:
            del right[-4:]  # a closed chain
            left = []
        else:
            left = _chain(o, i, s ^ 2) if near else []
        if len(left) + len(right) < 4:
            return
        c, r = left[-2:] if left else (i, s ^ 2)
        la, lb = 4 * c + ((r + 1) & 3), 4 * c + r
        c, r = right[-4:-2] if len(right) > 2 else (i, s)
        pa, pb = 4 * c + r, 4 * c + ((r + 1) & 3)
        c, r = right[-2:]
        ra, rb = 4 * c + r, 4 * c + ((r + 1) & 3)
        every = left[::2]
        every.append(i)
        every += right[::2]
        inner = every[:-1]
        self.twist = ((len(every), self.dirs[i], s & 1 == 1),
                      ((inner, la, pa, lb, pb), (every, la, ra, lb, rb),
                       (every, la, lb, ra, rb)))

    def first_bad(self) -> int | None:
        """The crossing to resolve, or None when no crossing is bad.

        A bad crossing is entered first at an even slot, on its under-
        strand, by the basepoint walks; each walk enters the first
        crossing not yet passed on its over-strand (see the module
        docstring).  Of the bad crossings, in walk order, the last with
        an alternating bigon at a corner is returned, else the first one:
        switching at the bigon leaves a same-over bigon, which the child's
        `reduce()` deletes with both its crossings.  `twist` is set as the
        class docstring says.
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
                                t0 & 1 and t0 >> 2 != i:
                            freeing, t, u = i, t0, t1
                        elif t1 ^ t2 < 4 and (t1 - t2) & 3 == 1 and \
                                not t1 & 1 and t1 >> 2 != i:
                            freeing, t, u = i, t1, t2
                        elif t2 ^ t3 < 4 and (t2 - t3) & 3 == 1 and \
                                t2 & 1 and t2 >> 2 != i:
                            freeing, t, u = i, t2, t3
                        elif t3 ^ t0 < 4 and (t3 - t0) & 3 == 1 and \
                                not t3 & 1 and t3 >> 2 != i:
                            freeing, t, u = i, t3, t0
                        elif first is None:
                            first = i
                p = o[p ^ 2]
                if p == start:
                    break
            k = passed.find(0, k)
        self.twist = None
        if freeing is None:
            return first
        # the bigon's sides end at t and u on the neighbour.  Its twist
        # region has k >= 3 crossings only if a bigon adjoins the corner
        # opposite the bigon's at the neighbour (slots u + 2 and t + 2) or
        # at the crossing (the slots at o[t] + 2 and o[u] + 2), from a third
        # crossing; not if both do from one, which closes a T(2, 3)
        a, c, x, y = o[u ^ 2], o[t ^ 2], o[o[t] ^ 2], o[o[u] ^ 2]
        far = a ^ c < 4 and (a - c) & 3 == 1 and a >> 2 != freeing
        near = x ^ y < 4 and (x - y) & 3 == 1 and x >> 2 != t >> 2
        if (far or near) and not (far and near and a >> 2 == x >> 2):
            self._twist_region(freeing, o[t] & 3, near)
        return freeing

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
    signed = False

    @classmethod
    def from_diagram(cls, d: PlanarDiagram) -> "_UDiagram":
        out = super().from_diagram(d)
        out.dirs = [True] * len(out.dirs)
        return out

    def switched(self, i: int) -> "_UDiagram":
        """Switch crossing i: the arc on leg l moves to leg l + 1."""
        out = _new(_UDiagram)
        out.o, out.dirs = list(self.o), self.dirs[:]
        out.free_loops, out.touched, out.dead = self.free_loops, {i}, []
        out._rotate(i, 1)
        return out

    @staticmethod
    def _twist_terms(positive: bool, odd: bool, w: int) -> tuple:
        """The monomials (a, b, c) of `_twist_coeffs` for a twist region
        whose bigons are at corners of parity `odd`; `positive` is unused.

        Switching the last crossing leaves T_(k-2), the smoothing along
        T_(k-1) and the one across T_inf with k - 1 curls, of sign sigma:
        D(T_j) = D(T_(j-2)) + eps z (D(T_(j-1)) - a^((j-1) sigma) D(T_inf)).
        eps = 1 when along is the 01,23 merge, at an odd corner, and the
        curls are at corners of the same parity: sigma = -eps.
        """
        eps = 1 if odd else -1
        return (0, 1), (1, eps), (1, -eps * w, -eps)

    def resolve(self, i: int, value, w: int) -> dict:
        """D of this state from the values of its children at crossing i,
        by the positional Dubrovnik relation
        D(cur) = D(switched) + z (D(merge 01,23) - D(merge 03,12))."""
        sw, s = value(self.switched(i))
        res = {e + s: v for e, v in sw.items()} if s else dict(sw)
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

    The memo lives only while the tree runs: `value` refers to itself, a
    cycle that would keep the memo until a full collection, so the memo
    and the twist coefficients `forms` are cleared when the tree ends,
    after the budget's `progress()` is frozen at the final counts.  A
    budget stop is re-raised without its traceback, whose frames would
    hold the memo as long as the caller keeps the exception; its message
    carries the counts.
    """
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 20000))
    memo: dict = {}
    forms: dict = {}
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
        if len(rd.dead) == len(rd.dirs):
            # no crossing is left
            return unlink(rd.free_loops - 1) if rd.free_loops else _ONE, curl
        key = rd.key()
        res = memo.get(key)
        if res is not None:
            hits += 1
            return res, curl
        i = rd.first_bad()
        if i is None:
            n, writhe = rd.components_and_writhe()
            s = writhe * cw
            res = unlink(n + rd.free_loops - 1)
            if s:
                res = {e + s: v for e, v in res.items()}
        else:
            if rd.twist is None:
                res = rd.resolve(i, value, w)
            else:
                res = rd.resolve_twist(value, w, forms)
            if 0 in res.values():
                res = {e: v for e, v in res.items() if v}
        memo[key] = res
        return res, curl

    try:
        res, curl = value(state.from_diagram(d))
    except ResourceLimitExceeded as exc:
        raise exc.with_traceback(None)
    finally:
        counts = budget.progress()
        budget.progress = lambda: counts
        memo.clear()
        forms.clear()
    s = curl - d.writhe() * cw
    return _unpacked({e + s: v for e, v in res.items()}, w, variables)


def homfly(d: PlanarDiagram, max_nodes: int | None = MAX_NODES) -> LaurentPoly2:
    """HOMFLY polynomial in (l, m), unknot normalized to 1."""
    return _tree(d, _RDiagram, _DELTA_P, False, ("l", "m"), max_nodes)


def kauffman_f(d: PlanarDiagram,
               max_nodes: int | None = MAX_NODES) -> LaurentPoly2:
    """Kauffman polynomial, Dubrovnik form, in (a, z); unknot gives 1."""
    return _tree(d, _UDiagram, _DELTA_F, True, ("a", "z"), max_nodes)


def _specialize(p: LaurentPoly2, stretch: int, imaginary: bool) -> dict:
    """The coefficients {e: c} in x of p(X, Y) at X = x^stretch and
    Y = x - x^-1.

    With `imaginary`, X and Y each carry a factor i as well, so a term
    c X^e1 Y^e2 gains i^(e1 + e2): a sign, since e1 and e2 are even for
    a knot's HOMFLY polynomial.  (x - x^-1)^e is expanded once per e, not
    once per term.  Only a link's polynomial has a negative Y-degree, and
    that is refused.
    """
    rows: dict[int, tuple] = {}
    acc: dict[int, int] = {}
    get = acc.get
    for (e1, e2), c in p.coeffs.items():
        if imaginary:
            if (e1 + e2) & 1:
                raise ValueError("unexpected parity in HOMFLY of a knot")
            if (e1 + e2) & 2:
                c = -c
        row = rows.get(e2)
        if row is None:
            if e2 < 0:
                raise ValueError(
                    f"negative {p.vars[1]}-degree: a link's "
                    f"{'HOMFLY' if imaginary else 'Kauffman'} polynomial")
            row = rows[e2] = tuple((e2 - 2 * k, (-1) ** k * comb(e2, k))
                                   for k in range(e2 + 1))
        base = stretch * e1
        for e, v in row:
            e += base
            acc[e] = get(e, 0) + c * v
    return acc


def alexander_from_homfly(p: LaurentPoly2) -> LaurentPoly:
    """Alexander polynomial via P(l = i, m = i(t^(1/2) - t^(-1/2))).

    In s = t^(1/2) this is l = i, m = i(s - s^-1); the powers of i
    and the half-integer powers of t cancel for a knot, and the result is
    symmetric with value 1 at t = 1 by construction.
    """
    return LaurentPoly("s", _specialize(p, 0, True)).shrink(2, "t")


def jones_from_homfly(p: LaurentPoly2) -> LaurentPoly:
    """Jones polynomial via P(l = i t^-1, m = i(t^(-1/2) - t^(1/2))).

    In x = t^(-1/2) this is l = i x^2, m = i(x - x^-1), which turns the
    HOMFLY relation into the Jones skein relation
    t^-1 V(L+) - t V(L-) = (t^(1/2) - t^(-1/2)) V(L0); as for Alexander,
    the powers of i and the half-integer powers of t cancel for a knot.
    """
    return LaurentPoly("x", _specialize(p, 2, True)).shrink(-2, "t")


def cjones3_from_kauffman(f: LaurentPoly2) -> LaurentPoly:
    """J_K(3) in q via F(a = q^2, z = q - q^-1).

    The vector representation of so(3) is the 3-dimensional one of
    U_q(sl2), and the so(N) vector invariant is the Kauffman polynomial
    (Turaev, Invent. Math. 92, 1988).  Only a link's F has a negative
    z-degree, and that is refused.
    """
    return LaurentPoly("q", _specialize(f, 2, False))


def p_whitehead_plus(d: PlanarDiagram,
                     max_nodes: int | None = MAX_NODES) -> LaurentPoly2:
    """HOMFLY of the 0-framed, positive-clasp Whitehead double of d."""
    return homfly(whitehead_double(d), max_nodes)


def homfly_2cable(d: PlanarDiagram,
                  max_nodes: int | None = MAX_NODES) -> LaurentPoly2:
    """HOMFLY of the blackboard 2-cable with one negative half-twist."""
    return homfly(cable(d, 2, -1), max_nodes)
