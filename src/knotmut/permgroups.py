"""Finite permutation groups used as epimorphism targets.

Elements are tuples giving the image of each point 0..degree-1.  Groups
are stored by generators; the full element list is computed by closure
and cached.  So are the tables an epimorphism search needs of its
target, built on its first search: sorted elements, their inverses,
conjugation orbits (walked along a few generators of a centralizer),
the per-point image columns of its byte lanes (on at most 256 points)
and the order of its abelianization.
Built-in targets: cyclic, dihedral, alternating, symmetric, and
PSL(2, q) acting on the projective line (q an odd prime); each
constructor raises ValueError outside the range it builds correctly and
builds a new group on every call, while `builtin_targets` and `target`
(by the printed name) build each built-in group once per process.
`StabilizerChain` is the one Schreier-Sims: a stabilizer chain grown one
generator at a time, with a membership test by sifting, the product of
its orbit lengths and a cheap copy.  `group_order` finds the order of
the group that permutations generate on one chain, without listing the
elements; a group's `order` comes from it, so reading the order builds
no closure.  A centralizer's generators and the derived subgroup are
each collected on one chain, a generator kept only when the chain does
not hold it.

A group may also carry normalizing permutations: point permutations
outside it that conjugate it onto itself, so that conjugation by the
group they generate together with it is a group of automorphisms.
Alt(n) carries a transposition and PSL(2, q) the map x -> wx with w a
non-square mod q, which give Sym(n) and PGL(2, q).

A group may also declare `automorphisms_induced`: it is transitive, and
every automorphism of it is conjugation by a point permutation that
normalizes it.  Two generating tuples then differ by an automorphism
exactly when they are conjugate in Sym(degree), which lets an
epimorphism search tell kernels apart by the tuples' action on the
points alone.  The built-in groups that declare it:

  * Alt(n) and Sym(n) with n != 6 (Aut is Sym(n); Alt(6) and Sym(6) have
    an outer automorphism that moves transpositions or 3-cycles onto
    fixed-point-free elements, so no point permutation induces it);
  * PSL(2, p), p prime (Aut is PGL(2, p): there are no field
    automorphisms);
  * the cyclic group of order n on n points: x -> ux + b mod n, u a unit,
    normalizes it and induces every automorphism r -> r^u;
  * the dihedral group of order 2n on the n-gon, n odd: every
    automorphism is r -> r^u, s -> r^b s, induced by x -> ux + b.  For n
    even the reflections through two vertices and those through two edge
    midpoints (two fixed points against none) form two classes that an
    automorphism swaps, which no point permutation does.
"""

from __future__ import annotations

import re
from functools import cache, cached_property
from math import inf, isqrt

Perm = tuple[int, ...]


def perm_mul(p: Perm, q: Perm) -> Perm:
    """Composition acting on the right: point x goes to q[p[x]]."""
    return tuple(map(q.__getitem__, p))


def perm_inv(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def identity(degree: int) -> Perm:
    return tuple(range(degree))


def conjugate(p: Perm, h: Perm, h_inv: Perm) -> Perm:
    """h^-1 p h, given h's inverse."""
    return tuple(map(h.__getitem__, map(p.__getitem__, h_inv)))


class PermGroup:
    def __init__(self, degree: int, generators: list[Perm], name: str = "",
                 normalizing: tuple[Perm, ...] = (),
                 automorphisms_induced: bool = False):
        self.degree = degree
        self.generators = [tuple(g) for g in generators]
        self.name = name
        self.normalizing = [tuple(t) for t in normalizing]
        self.automorphisms_induced = automorphisms_induced
        self._elements: frozenset[Perm] | None = None
        self._orbit_reps: dict[Perm | None, list[Perm]] = {}

    def elements(self) -> frozenset[Perm]:
        if self._elements is None:
            self._elements = frozenset(
                closure(self.generators, self.degree))
        return self._elements

    @cached_property
    def sorted_elements(self) -> list[Perm]:
        return sorted(self.elements())

    @cached_property
    def inverse(self) -> dict[Perm, Perm]:
        return {p: perm_inv(p) for p in self.sorted_elements}

    @cached_property
    def _conjugating_generators(self) -> list[tuple[Perm, Perm]]:
        """The generators of this group and its normalizing permutations,
        each paired with its inverse.

        Raises ValueError if a normalizing permutation conjugates a
        generator out of the group.
        """
        elems = self.elements()
        for t in self.normalizing:
            t_inv = perm_inv(t)
            if any(conjugate(g, t, t_inv) not in elems
                   for g in self.generators):
                raise ValueError(f"{t} does not normalize {self.name}")
        return [(h, perm_inv(h)) for h in self.generators + self.normalizing]

    def _centralizer_generators(self, x: Perm) -> list[tuple[Perm, Perm]]:
        """A few generators of the centralizer of `x` in K, the group that
        `_conjugating_generators` generate, each paired with its inverse.

        The centralizer is the stabilizer of `x` under conjugation by K,
        so the Schreier generators of x's class under K generate it; they
        are taken in turn, each kept only if the chain of the kept ones
        does not hold it, until that chain reaches the centralizer's
        order, |K| over the size of the class.
        """
        gens = self._conjugating_generators
        e = identity(self.degree)
        # y -> (u, u^-1) with y = u^-1 x u
        trans = {x: (e, e)}
        queue = [x]
        for y in queue:
            u, u_inv = trans[y]
            for h, h_inv in gens:
                z = conjugate(y, h, h_inv)
                if z not in trans:
                    trans[z] = (perm_mul(u, h), perm_mul(h_inv, u_inv))
                    queue.append(z)
        size = group_order([h for h, _ in gens], self.degree) // len(trans)
        schreier = (perm_mul(perm_mul(u, h), trans[conjugate(y, h, h_inv)][1])
                    for y, (u, _) in trans.items() for h, h_inv in gens)
        kept: list[Perm] = []
        chain = StabilizerChain(self.degree)
        for c in schreier:
            if chain.order() == size:
                break
            if c not in chain:
                kept.append(c)
                chain.extend(c, size)
        # each generator costs a conjugation per element of an orbit walk
        for c in kept[:-1]:
            rest = [d for d in kept if d is not c]
            if group_order(rest, self.degree, size) == size:
                kept = rest
        return [(c, perm_inv(c)) for c in kept]

    def conjugation_orbit_reps(self, x: Perm | None = None) -> list[Perm]:
        """The least element of each orbit of the group under conjugation by
        the centralizer of `x` in the group generated by it and its
        normalizing permutations (by all of that group when `x` is None,
        which gives the classes up to those automorphisms); kept once
        computed.  Each orbit is walked along generators of the
        centralizer."""
        reps = self._orbit_reps.get(x)
        if reps is None:
            gens = self._conjugating_generators if x is None else \
                self._centralizer_generators(x)
            seen: set[Perm] = set()
            reps = self._orbit_reps[x] = []
            for e in self.sorted_elements:
                if e in seen:
                    continue
                reps.append(e)
                seen.add(e)
                orbit = [e]
                for y in orbit:
                    for h, h_inv in gens:
                        z = conjugate(y, h, h_inv)
                        if z not in seen:
                            seen.add(z)
                            orbit.append(z)
        return reps

    @cached_property
    def abelianization_order(self) -> int:
        """The order of the group's abelianization, |G| / |G'|.

        The derived subgroup G' is the normal closure of the commutators
        of the generators: their conjugates by the generators are added
        to one stabilizer chain while it does not hold them.
        """
        e = identity(self.degree)
        gens = self.generators
        derived = [c for a in gens for b in gens
                   if (c := perm_mul(perm_mul(perm_inv(a), perm_inv(b)),
                                     perm_mul(a, b))) != e]
        chain = StabilizerChain(self.degree)
        for c in derived:
            chain.extend(c)
        for c in derived:   # conjugates added here are conjugated in turn
            for g in gens:
                d = conjugate(c, g, perm_inv(g))
                if d not in chain:
                    derived.append(d)
                    chain.extend(d)
        return self.order // chain.order()

    @cached_property
    def lane_columns(self) -> tuple[list[int], list[int]] | None:
        """Per point v, the images of v under the sorted elements and
        under their inverses, one byte per element in their order, read
        as little-endian ints; None on more than 256 points, which do not
        fit in a byte."""
        if self.degree > 256:
            return None
        elems = self.sorted_elements
        inv = self.inverse
        return ([int.from_bytes(bytes(p[v] for p in elems), "little")
                 for v in range(self.degree)],
                [int.from_bytes(bytes(inv[p][v] for p in elems), "little")
                 for v in range(self.degree)])

    @cached_property
    def order(self) -> int:
        return group_order(self.generators, self.degree)

    def __repr__(self):
        return f"PermGroup({self.name or self.degree}, order={self.order})"


def closure(gens: list[Perm], degree: int) -> set[Perm]:
    e = identity(degree)
    seen = {e}
    frontier = [e]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = perm_mul(p, g)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


class StabilizerChain:
    """A stabilizer chain of the group generated by the permutations it
    has been extended by, grown one generator at a time (deterministic
    Schreier-Sims, Holt, Eick and O'Brien, sec. 4.4.2).

    Level i keeps a base point, the generators found so far that fix the
    base points before it, and the orbit of its base point under them
    with a transversal: point y -> u with base[i]^u = y.  A new
    generator grows a level's orbit from the old points under it and
    from the new points under every generator.  Each Schreier pair
    (orbit point, generator) of a level is sifted through the levels
    below it once: a pair's Schreier generator stays fixed, since
    transversal entries never change, and what sifts to the identity
    stays in the levels below, which only grow.  A Schreier generator
    that leaves a residue has it added to the levels it reaches, and the
    pairs are worked again from the deepest of those levels up.
    Transversal elements are inverted only when a sift needs them.

    The product of the orbit lengths never exceeds the group's order and
    equals it once every pair is sifted.  `extend` stops as soon as the
    product reaches `enough`, leaving the chain incomplete, which a
    later `extend` finishes; membership is only meaningful on a complete
    chain.
    """

    def __init__(self, degree: int):
        self.degree = degree
        self._e = identity(degree)
        self.base: list[int] = []
        self._gens: list[list[Perm]] = []
        self._trans: list[dict[int, Perm]] = []
        self._inv: list[dict[int, Perm]] = []
        # per level, per orbit point in orbit order: generators sifted
        self._done: list[list[int]] = []

    def copy(self) -> StabilizerChain:
        """An independent chain of the same group; the permutations, being
        tuples, are shared."""
        c = StabilizerChain(self.degree)
        c.base = self.base[:]
        c._gens = [g[:] for g in self._gens]
        c._trans = [t.copy() for t in self._trans]
        c._inv = [t.copy() for t in self._inv]
        c._done = [d[:] for d in self._done]
        return c

    def order(self) -> int:
        """The product of the orbit lengths: the group's order on a
        complete chain, a lower bound on it otherwise."""
        out = 1
        for t in self._trans:
            out *= len(t)
        return out

    def __contains__(self, g: Perm) -> bool:
        return self._sift(g, 0)[0] == self._e

    def extend(self, g: Perm, enough: float = inf) -> None:
        """Add `g` to the generators and complete the chain, or stop once
        the order reaches `enough`."""
        h, j = self._sift(g, 0)
        if h != self._e:
            self._add(h, 0, j)
        i = len(self.base) - 1
        while i >= 0 and self.order() < enough:
            found = self._schreier_residue(i)
            if found is None:
                i -= 1
            else:
                h, j = found
                self._add(h, i + 1, j)
                i = j

    def _sift(self, h: Perm, lo: int) -> tuple[Perm, int]:
        """Strip `h` through the levels from `lo` on, up to the first whose
        orbit misses the image of its base point; the rest and that
        level (past the last if none)."""
        base, transversals, inverses = self.base, self._trans, self._inv
        for i in range(lo, len(base)):
            b = base[i]
            y = h[b]
            if y != b:
                u_inv = inverses[i].get(y)
                if u_inv is None:
                    u = transversals[i].get(y)
                    if u is None:
                        return h, i
                    u_inv = inverses[i][y] = perm_inv(u)
                h = perm_mul(h, u_inv)
        return h, len(base)

    def _add(self, h: Perm, lo: int, j: int) -> None:
        """Add `h`, which fixes the base points before level `j` and moves
        the one of level j (or every point already a base point, when j
        is past the last level), to the levels from `lo` to j."""
        if j == len(self.base):
            b = next(x for x, y in enumerate(h) if x != y)
            self.base.append(b)
            self._gens.append([])
            self._trans.append({b: self._e})
            self._inv.append({})
            self._done.append([0])
        for gens, trans, done in zip(self._gens[lo:j + 1],
                                     self._trans[lo:j + 1],
                                     self._done[lo:j + 1]):
            gens.append(h)
            fresh = []
            for x, u in list(trans.items()):
                y = h[x]
                if y not in trans:
                    trans[y] = perm_mul(u, h)
                    fresh.append(y)
            for x in fresh:
                u = trans[x]
                for g in gens:
                    y = g[x]
                    if y not in trans:
                        trans[y] = perm_mul(u, g)
                        fresh.append(y)
            done.extend([0] * (len(trans) - len(done)))

    def _schreier_residue(self, i: int) -> tuple[Perm, int] | None:
        """Sift the Schreier pairs of level i not sifted before, until one
        leaves a residue below it: that residue and the level its sift
        stopped at, or None once every pair sifts to the identity."""
        e = self._e
        gens, trans, inv, done = (self._gens[i], self._trans[i],
                                  self._inv[i], self._done[i])
        for k, (x, u) in enumerate(trans.items()):
            while done[k] < len(gens):
                g = gens[done[k]]
                done[k] += 1
                y = g[x]
                v = perm_mul(u, g)
                w = trans[y]
                if v == w:   # an edge of the orbit's spanning tree
                    continue
                w_inv = inv.get(y)
                if w_inv is None:
                    w_inv = inv[y] = perm_inv(w)
                h, j = self._sift(perm_mul(v, w_inv), i + 1)
                if h != e:
                    return h, j
        return None


def group_order(gens: list[Perm], degree: int,
                enough: float = inf) -> int:
    """The order of the group generated by `gens`, or, once it is known to
    be at least `enough`, a lower bound on it that is: the order of a
    `StabilizerChain` extended by each generator in turn, stopped as
    soon as it reaches `enough`.
    """
    chain = StabilizerChain(degree)
    for g in gens:
        chain.extend(g, enough)
        if chain.order() >= enough:
            break
    return chain.order()


def _refuse_below(prefix: str, n: int, low: int) -> None:
    if n < low:
        raise ValueError(f"{prefix}{n}: n must be at least {low}")


def cyclic(n: int) -> PermGroup:
    _refuse_below("C", n, 1)
    if n == 1:
        return PermGroup(1, [], "C1", automorphisms_induced=True)
    shift = tuple((i + 1) % n for i in range(n))
    return PermGroup(n, [shift], f"C{n}", automorphisms_induced=True)


def dihedral(n: int) -> PermGroup:
    """Symmetries of the n-gon, order 2n (n >= 3)."""
    _refuse_below("D", n, 3)
    rot = tuple((i + 1) % n for i in range(n))
    flip = tuple((-i) % n for i in range(n))
    return PermGroup(n, [rot, flip], f"D{n}", automorphisms_induced=n % 2 == 1)


def symmetric(n: int) -> PermGroup:
    _refuse_below("S", n, 1)
    if n == 1:
        return PermGroup(1, [], "S1", automorphisms_induced=True)
    gens = [tuple([1, 0] + list(range(2, n)))]
    if n > 2:
        gens.append(tuple(list(range(1, n)) + [0]))
    return PermGroup(n, gens, f"S{n}", automorphisms_induced=n != 6)


def alternating(n: int) -> PermGroup:
    _refuse_below("A", n, 1)
    if n < 3:
        return PermGroup(1, [], f"A{n}", automorphisms_induced=True)
    three = tuple([1, 2, 0] + list(range(3, n)))
    if n % 2 == 1:
        cyc = tuple(list(range(1, n)) + [0])
    else:
        cyc = tuple([0] + list(range(2, n)) + [1])
    swap = tuple([1, 0] + list(range(2, n)))
    return PermGroup(n, [three, cyc], f"A{n}", normalizing=(swap,),
                     automorphisms_induced=n != 6)


def psl2(q: int) -> PermGroup:
    """PSL(2, q) on the projective line {0..q-1, infinity}, q an odd prime."""
    if q < 3 or any(q % d == 0 for d in range(2, isqrt(q) + 1)):
        raise ValueError(f"PSL(2,{q}): q must be an odd prime")
    inf = q  # point index for infinity
    shift = tuple((x + 1) % q for x in range(q)) + (inf,)
    # x -> -1/x, with 0 <-> infinity
    neg_inv = [0] * (q + 1)
    neg_inv[0] = inf
    neg_inv[inf] = 0
    for x in range(1, q):
        neg_inv[x] = (-pow(x, q - 2, q)) % q
    # x -> wx for the least non-square w: diag(w, 1) lies in PGL(2, q)
    w = next(a for a in range(2, q) if pow(a, (q - 1) // 2, q) == q - 1)
    scale = tuple(w * x % q for x in range(q)) + (inf,)
    return PermGroup(q + 1, [shift, tuple(neg_inv)], f"PSL(2,{q})",
                     normalizing=(scale,), automorphisms_induced=True)


def target(name: str) -> PermGroup:
    """A target group by its short name (C5, D3, A5, S4, PSL(2,7))
    or by the long forms Alt(5) and Sym(4), built once per process."""
    text = name.replace(" ", "")
    m = (re.fullmatch(r"([CDAS])(\d+)", text)
         or re.fullmatch(r"(Alt|Sym)\((\d+)\)", text)
         or re.fullmatch(r"(PSL)\(2,(\d+)\)", text))
    if m is None:
        raise ValueError(f"unknown target group {name!r}")
    return _built(m[1][0], int(m[2]))


@cache
def _built(family: str, n: int) -> PermGroup:
    return {"C": cyclic, "D": dihedral, "A": alternating, "S": symmetric,
            "P": psl2}[family](n)


def builtin_targets(max_order: int = 700) -> list[PermGroup]:
    """The default epimorphism targets, smallest order first, each built
    once per process.  D3 is left out: it is S3 on the same 3 points."""
    out = [_built("C", n) for n in range(2, 16)]
    out.extend(_built("D", n) for n in range(4, 13))
    out.extend(_built("A", n) for n in range(4, 8))
    out.extend(_built("S", n) for n in range(3, 8))
    out.extend(_built("P", q) for q in (7, 11, 13))
    out = [g for g in out if g.order <= max_order]
    out.sort(key=lambda g: (g.order, g.name))
    return out
